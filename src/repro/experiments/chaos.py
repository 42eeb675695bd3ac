"""Seeded chaos campaigns with consistency and timeliness invariants.

Runs the full middleware stack under randomized-but-reproducible fault
schedules (:mod:`repro.net.chaos`) and then audits the run against the
guarantees the protocol claims (§3, §4.1, DESIGN.md §9):

* **order** — live serving primaries and secondaries never diverge: every
  pair of application histories is prefix-consistent, and after the drain
  window the serving primaries have converged to the same CSN;
* **staleness** — a non-deferred read never reflects state staler than its
  QoS threshold, judged conservatively against the sequencer's stamp
  (``sequencer.stamp`` trace records) and the serving replica's CSN;
* **durability** — an update acknowledged to a client is never lost: its
  GSN is unique and at or below the final CSN of every live serving
  primary, even across sequencer failovers and primary rejoins;
* **liveness** — once all faults heal, the system drains: probe reads
  issued after the grace window all resolve with a value.

A campaign is a pure function of its seed; a failing seed replays exactly.
``python -m repro.experiments.chaos --seeds 10`` (or ``repro chaos``) runs
a soak and exits non-zero on any violation, dumping the offending trace
when ``--trace-dir`` is given.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Optional

from repro.core.client import RetryPolicy
from repro.core.qos import QoSSpec
from repro.core.requests import ReadOutcome, UpdateOutcome
from repro.experiments.campaign import (
    Campaign,
    build_campaign_testbed,
    chaos_engine,
    dump_violation_trace,
    engine_events,
    main as campaign_main,
    run_phases,
)
from repro.net.chaos import ChaosConfig
from repro.obs.export import metrics_event
from repro.obs.metrics import MetricsRegistry
from repro.sim.tracing import Trace
from repro.workloads.generators import (
    ArrivalRateController,
    OpenLoopUpdater,
    PeriodicReader,
)

READ_QOS = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.5)
WARMUP = 2.0
DRAIN_GRACE = 6.0  # post-campaign window for retransmits + state transfers
TIMELINE_INTERVAL = 0.25  # recorder tick: resolves fault windows of ~1 s


@dataclass
class CampaignResult:
    """Outcome of one seeded campaign."""

    seed: int
    duration: float
    violations: list[str]
    faults_injected: int
    faults_skipped: int
    reads_issued: int
    reads_resolved: int
    timing_failures: int
    updates_acked: int
    recovery: dict[str, int] = field(default_factory=dict)
    events: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # MetricsRegistry snapshot
    timeline: Optional[dict] = None  # Timeline.to_dict() (repro dash input)

    @property
    def clean(self) -> bool:
        return not self.violations


def run_campaign(
    seed: int,
    duration: float = 20.0,
    membership_outage: bool = False,
    retry: bool = True,
    trace: Optional[Trace] = None,
    chaos_overrides: Optional[dict] = None,
    trace_dir: Optional[str] = None,
) -> CampaignResult:
    """Run one seeded fault campaign and audit its trace.

    The testbed runs three serving primaries (one protected so the order
    invariant always has ground truth), three secondaries, a steady update
    feed, and a periodic reader whose gateway uses the retry policy when
    ``retry`` is set.  The chaos engine injects faults for ``duration``
    seconds after a short warm-up, then the run drains and the invariant
    checkers audit the end state and the trace.
    """
    trace = trace if trace is not None else Trace(enabled=True)
    testbed = build_campaign_testbed(seed, trace, lazy_update_interval=0.5)
    sim, service, network = testbed.sim, testbed.service, testbed.network

    policy = RetryPolicy(max_retries=2, hedge=True) if retry else None
    feed = service.create_client("feed", read_only_methods={"get"})
    reader = service.create_client(
        "reader", read_only_methods={"get"}, retry_policy=policy
    )

    overrides = dict(chaos_overrides or {})
    overrides.setdefault(
        "membership_outage_weight", 1.0 if membership_outage else 0.0
    )
    # A load storm needs the rate controller shared between the chaos
    # engine and the generators; leave it out entirely when the fault is
    # off so existing campaigns are untouched.
    storming = overrides.get("load_storm_weight", 0.0) > 0
    rate_controller = ArrivalRateController() if storming else None

    workload_span = WARMUP + duration + DRAIN_GRACE / 2
    updater = OpenLoopUpdater(
        sim, feed, testbed.rng, rate=4.0, duration=workload_span,
        rate_controller=rate_controller,
    )
    reader_gen = PeriodicReader(
        sim, reader, READ_QOS, period=0.1, duration=workload_span,
        rate_controller=rate_controller,
    ) if storming else PeriodicReader(
        sim, reader, READ_QOS, period=0.1, count=int(workload_span / 0.1)
    )

    replica_names = {h.name for h in service.all_replicas()}

    def repair(name: str) -> None:
        if name in replica_names:
            service.recover_replica(name)
        else:
            network.recover(name)

    engine = chaos_engine(
        testbed,
        ChaosConfig(duration=duration, **overrides),
        rate_controller=rate_controller,
        repair=repair,
        sequencer=service.sequencer_name,
        membership=testbed.membership.name if membership_outage else None,
    )

    def repair_sweep() -> None:
        """Re-admit live replicas that membership evicted (partitions)."""
        for handler in service.all_replicas():
            if not network.is_up(handler.name):
                continue
            home = (
                service.groups.secondary
                if handler in service.secondaries
                else service.groups.primary
            )
            if handler.name not in testbed.membership.view_of(home):
                service.recover_replica(handler.name)
        sim.schedule(0.4, repair_sweep)

    recorder = run_phases(
        testbed, engine, WARMUP, duration, DRAIN_GRACE,
        interval=TIMELINE_INTERVAL,
        after_start=lambda: sim.schedule(0.4, repair_sweep),
    )

    # Liveness probes: after heal + grace every read must resolve.
    prober = PeriodicReader(sim, reader, READ_QOS, period=0.2, count=5)
    sim.run(until=sim.now + 5.0)
    recorder.flush()

    violations = _check_invariants(
        testbed, reader_gen.outcomes, updater.outcomes, prober.outcomes, trace
    )

    recovery = reader.recovery_stats()
    for key in (
        "state_transfers_started",
        "state_transfers_completed",
        "state_transfers_served",
    ):
        recovery[key] = sum(
            getattr(handler, key).value for handler in service.all_replicas()
        )

    result = CampaignResult(
        seed=seed,
        duration=duration,
        violations=violations,
        faults_injected=engine.faults_injected.value,
        faults_skipped=engine.faults_skipped.value,
        reads_issued=reader.reads_issued.value,
        reads_resolved=reader.reads_resolved.value,
        timing_failures=reader.timing_failures.value,
        updates_acked=len(updater.outcomes),
        recovery=recovery,
        events=engine_events(engine),
        metrics=testbed.metrics.snapshot(),
        timeline=recorder.timeline().to_dict(),
    )
    dump_violation_trace("chaos", result, trace, trace_dir)
    return result


# ---------------------------------------------------------------------------
# Invariant checkers
# ---------------------------------------------------------------------------
def _prefix_consistent(a: list, b: list) -> bool:
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def _check_invariants(
    testbed,
    read_outcomes: list[ReadOutcome],
    update_outcomes: list[UpdateOutcome],
    probes: list[ReadOutcome],
    trace: Trace,
) -> list[str]:
    violations: list[str] = []
    service = testbed.service
    network = testbed.network
    membership = testbed.membership

    primary_view = membership.view_of(service.groups.primary)
    # The current sequencer (post-failover this is a promoted ex-serving
    # primary) stops committing by design — its frozen history is still
    # prefix-checked below, but it is exempt from convergence/durability.
    live_primaries = [
        h
        for h in service.primaries
        if network.is_up(h.name)
        and h.name in primary_view
        and h.name != primary_view.leader
        and not getattr(h, "_recovering", False)
    ]
    live_secondaries = [
        h
        for h in service.secondaries
        if network.is_up(h.name)
        and h.name in membership.view_of(service.groups.secondary)
    ]

    promoted = [
        h
        for h in service.primaries
        if network.is_up(h.name) and h.name == primary_view.leader
    ]

    # Order: live replicas never diverge, and the serving primaries have
    # converged by the end of the drain window.
    reference = max(live_primaries, key=lambda h: h.my_csn, default=None)
    if reference is not None:
        for handler in live_primaries + live_secondaries + promoted:
            if not _prefix_consistent(handler.app.history, reference.app.history):
                violations.append(
                    f"order: {handler.name} history diverges from "
                    f"{reference.name}"
                )
        for handler in live_primaries:
            if handler.my_csn != reference.my_csn:
                violations.append(
                    f"order: {handler.name} csn={handler.my_csn} never "
                    f"converged to {reference.name} csn={reference.my_csn}"
                )

    # Staleness: judged against the sequencer's (re-)stamp, which is the
    # latest GSN the read could have been ordered after — conservative.
    stamps: dict[int, int] = {}
    for record in trace.filter("sequencer.stamp"):
        stamps[record.detail["request_id"]] = record.detail["gsn"]
    for outcome in read_outcomes:
        if outcome.value is None or outcome.deferred or outcome.gsn < 0:
            continue
        stamp = stamps.get(outcome.request_id)
        if stamp is None:
            continue
        staleness = stamp - outcome.gsn
        if staleness > READ_QOS.staleness_threshold:
            violations.append(
                f"staleness: read {outcome.request_id} served "
                f"{staleness} versions stale (threshold "
                f"{READ_QOS.staleness_threshold})"
            )

    # Durability: acknowledged updates are never lost, never doubly
    # sequenced, and survive on every live serving primary.
    seen_gsn: dict[int, int] = {}
    max_acked = 0
    for outcome in update_outcomes:
        if outcome.gsn <= 0:
            violations.append(
                f"durability: update {outcome.request_id} acked without a GSN"
            )
            continue
        prior = seen_gsn.get(outcome.gsn)
        if prior is not None and prior != outcome.request_id:
            violations.append(
                f"durability: GSN {outcome.gsn} acked for both request "
                f"{prior} and {outcome.request_id}"
            )
        seen_gsn[outcome.gsn] = outcome.request_id
        max_acked = max(max_acked, outcome.gsn)
    for handler in live_primaries:
        if handler.my_csn < max_acked:
            violations.append(
                f"durability: {handler.name} csn={handler.my_csn} lost "
                f"acked updates up to GSN {max_acked}"
            )

    # Liveness: the healed system serves every probe read with a value.
    for outcome in probes:
        if outcome.value is None:
            violations.append(
                f"liveness: probe read {outcome.request_id} never resolved "
                f"after faults healed"
            )

    return violations


# ---------------------------------------------------------------------------
# Campaign declaration + CLI
# ---------------------------------------------------------------------------
def _merged_record(results: list[CampaignResult]) -> list[dict]:
    merged = MetricsRegistry.merge(*(r.metrics for r in results))
    return [metrics_event(merged, kind="merged")]


def _add_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--membership-outage",
        action="store_true",
        help="include membership-service outages in the fault mix",
    )
    parser.add_argument(
        "--no-retry", action="store_true", help="disable the client retry policy"
    )
    parser.add_argument(
        "--membership-outage-weight",
        type=float,
        metavar="W",
        help="weight of membership-service outages in the mix "
        "(implies --membership-outage when positive)",
    )
    parser.add_argument(
        "--overload-window",
        type=float,
        nargs=2,
        metavar=("LOW", "HIGH"),
        help="host-overload window bounds in seconds",
    )
    parser.add_argument(
        "--load-storm-weight",
        type=float,
        metavar="W",
        help="weight of traffic-burst (load-storm) faults in the mix",
    )


def _cell_kwargs(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.membership_outage_weight is not None:
        overrides["membership_outage_weight"] = args.membership_outage_weight
    if args.overload_window is not None:
        overrides["overload_window"] = tuple(args.overload_window)
    if args.load_storm_weight is not None:
        overrides["load_storm_weight"] = args.load_storm_weight
    return {
        "membership_outage": args.membership_outage
        or (args.membership_outage_weight or 0.0) > 0,
        "retry": not args.no_retry,
        "chaos_overrides": overrides or None,
    }


CAMPAIGN = Campaign(
    name="chaos",
    doc=__doc__,
    run_cell=run_campaign,
    modes=(),
    default=(10, 20.0),
    quick=(3, 8.0),
    title="chaos soak",
    columns=(
        ("faults", lambda r: r.faults_injected),
        ("reads", lambda r: r.reads_resolved),
        ("late", lambda r: r.timing_failures),
        ("acks", lambda r: r.updates_acked),
        ("retries", lambda r: r.recovery.get("retries_sent", 0)),
        ("xfers", lambda r: r.recovery.get("state_transfers_completed", 0)),
    ),
    cell_fields=("faults_injected", "violations", "metrics"),
    telemetry_title="campaign telemetry",
    extra_records=_merged_record,
    check_flag=False,
    add_flags=_add_flags,
    cell_kwargs=_cell_kwargs,
)


def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> int:
    return campaign_main(CAMPAIGN, argv, prog)


if __name__ == "__main__":
    sys.exit(main())
