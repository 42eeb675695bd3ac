"""Load-storm campaigns: shedding + degradation vs. unbounded queues.

Drives seeded traffic bursts (the ``load_storm`` chaos fault) through two
configurations of the same testbed:

* **shed** — replicas carry an :class:`~repro.core.overload.OverloadConfig`
  (bounded queue, deadline-aware shedding, deferred-read expiry) and the
  clients walk the :class:`~repro.core.overload.DegradationPolicy` ladder;
* **unbounded** — the pre-overload runtime: queues grow without bound and
  every queued read is served, however late.

Each shed cell is audited against the overload invariants (DESIGN.md §11):

* **bounded queues** — no replica's queue-depth peak ever exceeds the
  configured capacity (plus the one in-service slot and the single
  unsheddable update the commit path keeps in flight);
* **no stranded deferred reads** — after the drain window every
  secondary's deferred-read buffer is empty: expired and recovery-dropped
  reads were *bounced*, not leaked;
* **audited degradation** — every ladder transition appears both in the
  client's recovery counters and in the trace, and every locally-shed
  read is accounted;
* **storm pressure is real** — at least one storm was injected and the
  replica-side shed path actually fired (otherwise the comparison below
  is vacuous).

Across the suite, one claim paired by seed (the campaign skeleton judges
it): shedding beats the unbounded queues on the high-priority (vip)
client's p99 effective latency under storms — that is the whole point of
bouncing bulk traffic early.

``python -m repro.experiments.overload --check`` (or ``repro overload``)
exits non-zero on any violation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

from repro.core.retry import RetryPolicy
from repro.core.overload import STEP_COOLDOWN, DegradationPolicy, OverloadConfig
from repro.core.priority import PriorityMapper
from repro.core.qos import QoSSpec
from repro.experiments.campaign import (
    Campaign,
    Claim,
    build_campaign_testbed,
    chaos_engine,
    counter_sum,
    dump_violation_trace,
    effective_latency,
    engine_events,
    main as campaign_main,
    percentile,
    run_phases,
    storm_chaos_config,
)
from repro.sim.tracing import Trace
from repro.workloads.generators import (
    ArrivalRateController,
    OpenLoopUpdater,
    PeriodicReader,
)

#: The platinum client: tight staleness, high P_c(d) — never sheddable by
#: the ladder (its priority sits above the bronze shed floor).
VIP_QOS = QoSSpec(staleness_threshold=10, deadline=0.5, min_probability=0.99)
#: The bulk client: relaxed staleness, bronze P_c(d) — first to be shed.
BULK_QOS = QoSSpec(staleness_threshold=30, deadline=0.5, min_probability=0.5)

#: Replica-side protection used by the shed cells.
SHED_CONFIG = OverloadConfig(queue_capacity=16, defer_capacity=64)

WARMUP = 2.0
DRAIN_GRACE = 5.0

#: Recorder tick for overload cells — storms last 1-2.5 s, so a 100 ms
#: grid resolves the burn-rate ramp the SLO engine alerts on.
TIMELINE_INTERVAL = 0.1

MODES = ("shed", "unbounded")

#: Arrival-rate multiplier range of one storm.
STORM_FACTOR = (4.0, 8.0)


@dataclass
class OverloadCellResult:
    """Outcome of one (seed, mode) campaign cell."""

    seed: int
    mode: str  # "shed" | "unbounded"
    duration: float
    violations: list[str]
    storms: int
    vip_issued: int
    vip_resolved: int
    vip_timing_failures: int
    vip_latencies: list[float]  # effective latency per vip read
    bulk_issued: int
    bulk_timing_failures: int
    replica_reads_shed: int
    client_reads_shed: int
    overload_replies: int
    degradation_steps_down: int
    degradation_steps_up: int
    queue_depth_peaks: dict[str, int] = field(default_factory=dict)
    recovery: dict[str, int] = field(default_factory=dict)
    events: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    # Timeline.to_dict() of the cell's 100 ms-tick recorder (SLO engine +
    # ``repro dash`` input); plain dict so cells stay picklable.
    timeline: Optional[dict] = None

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def vip_p99(self) -> float:
        return percentile(self.vip_latencies, 0.99)


def run_overload_cell(
    seed: int,
    mode: str,
    duration: float = 12.0,
    trace_dir: Optional[str] = None,
    calm: bool = False,
    step_cooldown: float = STEP_COOLDOWN,
) -> OverloadCellResult:
    """Run one seeded storm campaign in ``shed`` or ``unbounded`` mode.

    ``calm=True`` keeps everything — workload, seeding, recorder —
    identical but never starts the chaos engine, giving the storm-free
    control run the SLO burn-alert tests compare against.

    ``step_cooldown`` spaces the clients' ladder steps; the SLO acceptance
    campaign uses a cautious ladder (a longer cooldown) so the burn-rate
    pager is expected to lead the slide into CRITICAL.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    shed = mode == "shed"
    trace = Trace(enabled=True)
    testbed = build_campaign_testbed(
        seed,
        trace,
        lazy_update_interval=0.3,
        gc_timeout=4.0,
        overload=SHED_CONFIG if shed else None,
    )
    sim, service = testbed.sim, testbed.service

    mapper = PriorityMapper()
    policy = RetryPolicy(max_retries=1)
    vip_ladder = DegradationPolicy(mapper, step_cooldown) if shed else None
    bulk_ladder = DegradationPolicy(mapper, step_cooldown) if shed else None
    feed = service.create_client("feed", read_only_methods={"get"})
    vip = service.create_client(
        "vip",
        read_only_methods={"get"},
        retry_policy=policy,
        degradation=vip_ladder,
        priority="platinum",
    )
    bulk = service.create_client(
        "bulk",
        read_only_methods={"get"},
        retry_policy=policy,
        degradation=bulk_ladder,
        priority="bronze",
    )

    controller = ArrivalRateController()
    span = WARMUP + duration + DRAIN_GRACE / 2
    updater = OpenLoopUpdater(
        sim, feed, testbed.rng, rate=2.0, duration=span
    )
    vip_reader = PeriodicReader(
        sim, vip, VIP_QOS, period=0.04, duration=span,
        rate_controller=controller,
    )
    bulk_reader = PeriodicReader(
        sim, bulk, BULK_QOS, period=0.02, duration=span,
        rate_controller=controller,
    )

    engine = chaos_engine(
        testbed,
        storm_chaos_config(duration, STORM_FACTOR),
        rate_controller=controller,
    )
    recorder = run_phases(
        testbed, None if calm else engine, WARMUP, duration, DRAIN_GRACE,
        interval=TIMELINE_INTERVAL,
    )
    recorder.flush()

    storms = sum(1 for e in engine.events if e.kind == "load-storm")
    recovery: dict[str, int] = {}
    for client in (vip, bulk):
        for key, value in client.recovery_stats().items():
            recovery[key] = recovery.get(key, 0) + value
    peaks = {
        handler.name: handler.queue_depth_peak
        for handler in service.all_replicas()
    }
    snapshot = testbed.metrics.snapshot()

    violations = (
        _check_overload_invariants(
            testbed, (vip, bulk), (vip_ladder, bulk_ladder), storms, trace,
            expect_storms=not calm,
        )
        if shed
        else []
    )

    result = OverloadCellResult(
        seed=seed,
        mode=mode,
        duration=duration,
        violations=violations,
        storms=storms,
        vip_issued=vip_reader.issued,
        vip_resolved=sum(1 for o in vip_reader.outcomes if o.value is not None),
        vip_timing_failures=sum(
            1 for o in vip_reader.outcomes if o.timing_failure
        ),
        vip_latencies=[
            effective_latency(o, VIP_QOS.deadline) for o in vip_reader.outcomes
        ],
        bulk_issued=bulk_reader.issued,
        bulk_timing_failures=sum(
            1 for o in bulk_reader.outcomes if o.timing_failure
        ),
        replica_reads_shed=counter_sum(snapshot, "replica_reads_shed"),
        client_reads_shed=vip.reads_shed.value + bulk.reads_shed.value,
        overload_replies=vip.overload_replies.value + bulk.overload_replies.value,
        degradation_steps_down=recovery.get("degradation_steps_down", 0),
        degradation_steps_up=recovery.get("degradation_steps_up", 0),
        queue_depth_peaks=peaks,
        recovery=recovery,
        events=engine_events(engine),
        metrics=snapshot,
        timeline=recorder.timeline().to_dict(),
    )
    dump_violation_trace("overload", result, trace, trace_dir)
    return result


def _check_overload_invariants(
    testbed, clients, ladders, storms: int, trace: Trace,
    expect_storms: bool = True,
) -> list[str]:
    violations: list[str] = []
    service = testbed.service

    # Bounded queues: capacity, plus the in-service slot (queue_depth
    # counts it) and the single unsheddable update the commit path keeps
    # in flight on a primary.
    capacity = SHED_CONFIG.queue_capacity
    assert capacity is not None
    bound = capacity + 2
    for handler in service.all_replicas():
        if handler.queue_depth_peak > bound:
            violations.append(
                f"queue-bound: {handler.name} peaked at "
                f"{handler.queue_depth_peak} > {bound}"
            )

    # No stranded deferred reads after the drain window.
    for handler in service.secondaries:
        stranded = len(getattr(handler, "_deferred", ()))
        if stranded:
            violations.append(
                f"deferred-leak: {handler.name} still buffers {stranded} reads"
            )

    # Audited degradation: counters, policy state, and trace must agree.
    traced_steps = len(list(trace.filter("client.degradation")))
    policy_steps = sum(len(ladder.steps) for ladder in ladders)
    counted_steps = sum(
        client.recovery_stats()["degradation_steps_down"]
        + client.recovery_stats()["degradation_steps_up"]
        for client in clients
    )
    if not traced_steps == policy_steps == counted_steps:
        violations.append(
            f"degradation-audit: trace={traced_steps} "
            f"policy={policy_steps} counters={counted_steps} disagree"
        )

    # Every issued read was judged: nothing is silently dropped.
    for client in clients:
        issued, judged = client.reads_issued.value, client.reads_judged.value
        if issued != judged:
            violations.append(
                f"accounting: {client.name} issued {issued} "
                f"reads but judged {judged}"
            )

    if expect_storms and storms == 0:
        violations.append("storm: no load storm was injected")
    return violations


# ---------------------------------------------------------------------------
# Campaign declaration + CLI
# ---------------------------------------------------------------------------
CAMPAIGN = Campaign(
    name="overload",
    doc=__doc__,
    run_cell=run_overload_cell,
    modes=MODES,
    default=(16, 12.0),
    quick=(8, 6.0),
    title="overload campaign (shed vs. unbounded)",
    columns=(
        ("storms", lambda r: r.storms),
        ("vip reads", lambda r: r.vip_issued),
        ("vip p99", lambda r: f"{r.vip_p99:.4f}"),
        ("vip late", lambda r: r.vip_timing_failures),
        ("bulk late", lambda r: r.bulk_timing_failures),
        ("shed@replica", lambda r: r.replica_reads_shed),
        ("shed@client", lambda r: r.client_reads_shed),
        (
            "steps v/^",
            lambda r: f"{r.degradation_steps_down}/{r.degradation_steps_up}",
        ),
    ),
    cell_fields=(
        "storms", "vip_p99", "vip_timing_failures", "bulk_timing_failures",
        "replica_reads_shed", "client_reads_shed", "overload_replies",
        "degradation_steps_down", "degradation_steps_up",
        "queue_depth_peaks", "violations",
    ),
    telemetry_title="shed-cell telemetry",
    telemetry_modes=("shed",),
    claims=(Claim("shed", "unbounded", "vip_p99", better="lower"),),
)


def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> int:
    return campaign_main(CAMPAIGN, argv, prog)


if __name__ == "__main__":
    sys.exit(main())
