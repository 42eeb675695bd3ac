"""Gray-failure campaigns: φ-accrual detection vs. fixed timeouts.

Drives seeded *gray* fault storms — slow nodes, flapping links, one-way
partitions, duplication churn (:mod:`repro.net.chaos`) — through two
configurations of the same testbed:

* **detector** — clients and replicas carry a
  :class:`~repro.core.detector.DetectorConfig`: suspicion-weighted
  candidate ejection before Algorithm-1, suspicion-triggered hedging,
  probe-based re-admission, the adaptive commit-gap watchdog, and
  slow-publisher reassignment;
* **baseline** — the pre-detector runtime: fixed timeouts everywhere,
  replicas are only ever *crashed or fine*.

Each detector cell is audited against the gray invariants (DESIGN.md §14):

* **no permanent ejection** — after the campaign heals and the drain
  window passes, no peer is still suspected: probes re-admitted every
  ejected replica;
* **bounded false positives** — joining the client's suspicion
  transitions against the chaos engine's ground-truth
  :class:`~repro.net.chaos.GrayFault` schedule
  (:func:`repro.obs.detection.score_detection`), at most half of all
  suspect edges may lack a covering fault window;
* **the detector actually fired** — at least one gray fault hit a
  serving replica and at least one suspicion was raised (otherwise the
  comparison below is vacuous);
* **accounting** — every issued read was judged; nothing is silently
  dropped.

Across the suite, the acceptance comparison: pooled read p99 effective
latency must be strictly better with the detector than without, and the
SLA satisfaction rate (reads meeting their deadline) must be no worse —
routing around an alive-but-slow replica is the whole point.

``python -m repro.experiments.gray --check`` (or ``repro gray``) exits
non-zero on any violation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

from repro.core.client import RetryPolicy
from repro.core.detector import DetectorConfig
from repro.core.qos import QoSSpec
from repro.experiments.campaign import (
    Campaign,
    build_campaign_testbed,
    chaos_engine,
    dump_violation_trace,
    effective_latency,
    engine_events,
    main as campaign_main,
    percentile,
    pooled,
    run_phases,
)
from repro.net.chaos import ChaosConfig, ChaosEngine
from repro.obs.detection import DetectionReport, score_detection
from repro.sim.tracing import Trace
from repro.workloads.generators import OpenLoopUpdater, PeriodicReader

#: The audited reader: moderate staleness, tight deadline — the client
#: whose p99 the detector must defend.
READ_QOS = QoSSpec(staleness_threshold=10, deadline=0.25, min_probability=0.9)

#: Detection tuning used by the detector cells: a shorter window, colder
#: start and faster probing than the defaults.
DETECTOR_CONFIG = DetectorConfig(window_size=48, min_samples=6, probe_interval=0.3)

#: Suspicions raised this long (seconds) after a fault healed are still
#: attributed to it — the evidence (a missing arrival) trails the fault.
SCORING_GRACE = 1.0

WARMUP = 2.0
DRAIN_GRACE = 5.0
TIMELINE_INTERVAL = 0.25  # recorder tick: resolves 1.5-3.5 s gray windows

MODES = ("detector", "baseline")


def gray_chaos_config(duration: float) -> ChaosConfig:
    """A gray-only fault mix: no crashes, no symmetric partitions.

    ``slow_jitter`` is pushed well above the defaults so a slow node
    actually blows the 0.25 s read deadline (per-message jitter up to
    0.25 s on both the request and the reply leg).
    """
    return ChaosConfig(
        duration=duration,
        mean_interval=0.8,
        crash_weight=0.0,
        partition_weight=0.0,
        overload_weight=0.0,
        loss_weight=0.0,
        slow_node_weight=4.0,
        flapping_link_weight=1.5,
        oneway_partition_weight=1.0,
        dup_storm_weight=1.0,
        slow_window=(1.5, 3.5),
        slow_factor=(3.0, 8.0),
        slow_jitter=(0.08, 0.25),
        flap_window=(1.0, 2.5),
        flap_period=(0.1, 0.3),
        dup_window=(0.5, 2.0),
        dup_probability=(0.1, 0.35),
    )


@dataclass
class GrayCellResult:
    """Outcome of one (seed, mode) campaign cell."""

    seed: int
    mode: str  # "detector" | "baseline"
    duration: float
    violations: list[str]
    gray_faults: int
    faults_by_kind: dict[str, int]
    reads_issued: int
    reads_resolved: int
    timing_failures: int
    latencies: list[float]  # effective latency per read
    detector_ejections: int
    detector_hedges: int
    detector_probes: int
    suspects_total: int
    clears_total: int
    still_suspected: list[str]
    detection: Optional[dict] = None  # DetectionReport.to_dict(), detector mode
    events: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    timeline: Optional[dict] = None  # Timeline.to_dict() (repro dash input)

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def p99(self) -> float:
        return percentile(self.latencies, 0.99)

    @property
    def sla_rate(self) -> float:
        """Fraction of issued reads that met their deadline."""
        if not self.reads_issued:
            return 1.0
        return 1.0 - self.timing_failures / self.reads_issued


def run_gray_cell(
    seed: int,
    mode: str,
    duration: float = 14.0,
    trace_dir: Optional[str] = None,
) -> GrayCellResult:
    """Run one seeded gray-fault campaign in ``detector`` or ``baseline``
    mode.

    The chaos schedule is a pure function of the seed: the engine draws
    from its own ``chaos.engine`` stream and no gray fault consults
    protocol state, so both modes of a seed face the identical storm.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    detecting = mode == "detector"
    trace = Trace(enabled=True)
    testbed = build_campaign_testbed(
        seed,
        trace,
        lazy_update_interval=0.3,
        gc_timeout=4.0,
        detector=DETECTOR_CONFIG if detecting else None,
    )
    sim, service = testbed.sim, testbed.service

    feed = service.create_client("feed", read_only_methods={"get"})
    reader_client = service.create_client(
        "app",
        read_only_methods={"get"},
        retry_policy=RetryPolicy(max_retries=1, hedge=True),
    )

    span = WARMUP + duration + DRAIN_GRACE / 2
    updater = OpenLoopUpdater(sim, feed, testbed.rng, rate=2.0, duration=span)
    reader = PeriodicReader(sim, reader_client, READ_QOS, period=0.03, duration=span)

    serving = {h.name for h in service.primaries + service.secondaries}
    engine = chaos_engine(testbed, gray_chaos_config(duration))
    recorder = run_phases(
        testbed, engine, WARMUP, duration, DRAIN_GRACE,
        interval=TIMELINE_INTERVAL,
    )
    recorder.flush()

    recovery = reader_client.recovery_stats()
    detector = reader_client.detector
    detection: Optional[DetectionReport] = None
    if detector is not None:
        detection = score_detection(
            detector.transitions,
            engine.gray_schedule,
            observable=serving,
            grace=SCORING_GRACE,
        )

    violations = (
        _check_gray_invariants(reader_client, engine, detection, serving)
        if detecting
        else []
    )

    by_kind: dict[str, int] = {}
    for fault in engine.gray_schedule:
        by_kind[fault.kind] = by_kind.get(fault.kind, 0) + 1

    result = GrayCellResult(
        seed=seed,
        mode=mode,
        duration=duration,
        violations=violations,
        gray_faults=len(engine.gray_schedule),
        faults_by_kind=by_kind,
        reads_issued=reader.issued,
        reads_resolved=sum(1 for o in reader.outcomes if o.value is not None),
        timing_failures=sum(1 for o in reader.outcomes if o.timing_failure),
        latencies=[
            effective_latency(o, READ_QOS.deadline) for o in reader.outcomes
        ],
        detector_ejections=recovery.get("detector_ejections", 0),
        detector_hedges=recovery.get("detector_hedges", 0),
        detector_probes=recovery.get("detector_probes", 0),
        suspects_total=(
            0 if detector is None else detector.stats()["suspects_total"]
        ),
        clears_total=(
            0 if detector is None else detector.stats()["clears_total"]
        ),
        still_suspected=[] if detector is None else detector.suspected(),
        detection=None if detection is None else detection.to_dict(),
        events=engine_events(engine),
        metrics=testbed.metrics.snapshot(),
        timeline=recorder.timeline().to_dict(),
    )
    dump_violation_trace("gray", result, trace, trace_dir)
    return result


def _check_gray_invariants(
    client, engine: ChaosEngine, detection: Optional[DetectionReport],
    serving: set[str],
) -> list[str]:
    violations: list[str] = []
    detector = client.detector
    assert detector is not None and detection is not None

    # The storm must be real: gray faults on serving replicas, and the
    # detector must have reacted to at least one of them.
    observable = [f for f in engine.gray_schedule if f.target in serving]
    if not observable:
        violations.append("storm: no gray fault hit a serving replica")
    elif detector.stats()["suspects_total"] == 0:
        violations.append("detector-idle: gray faults injected, zero suspicions")

    # No permanent ejection: the campaign healed everything, the drain
    # window passed, so probes must have re-admitted every suspect.
    stuck = detector.suspected()
    if stuck:
        violations.append(
            f"permanent-ejection: still suspected after heal+drain: {stuck}"
        )

    # Bounded false positives against the ground-truth schedule.
    if detection.suspect_edges and detection.false_positive_rate > 0.5:
        violations.append(
            f"false-positives: {detection.false_positives}/"
            f"{detection.suspect_edges} suspect edges "
            f"({detection.false_positive_rate:.0%}) lack a covering fault"
        )

    # Every issued read was judged: nothing is silently dropped.
    issued, judged = client.reads_issued.value, client.reads_judged.value
    if issued != judged:
        violations.append(f"accounting: issued {issued} reads but judged {judged}")
    return violations


# ---------------------------------------------------------------------------
# Acceptance rule, campaign declaration + CLI
# ---------------------------------------------------------------------------
def pooled_stats(results: list[GrayCellResult], mode: str) -> dict:
    """One mode's read p99 and SLA rate, pooled across seeds."""
    cells = [r for r in results if r.mode == mode]
    latencies = pooled(results, mode, "latencies")
    issued = sum(r.reads_issued for r in cells)
    late = sum(r.timing_failures for r in cells)
    return {
        "p99": percentile(latencies, 0.99),
        "sla_rate": 1.0 - late / issued if issued else 1.0,
        "samples": len(latencies),
    }


def acceptance(results: list[GrayCellResult]) -> list[str]:
    """The cross-mode checks: with the detector, pooled read p99 strictly
    better and SLA satisfaction no worse than the baseline's."""
    violations = []
    det, base = (pooled_stats(results, mode) for mode in MODES)
    if det["samples"] and base["samples"]:
        if not det["p99"] < base["p99"]:
            violations.append(
                f"p99: read effective latency with the detector "
                f"({det['p99']:.4f}s) is not better than baseline "
                f"({base['p99']:.4f}s)"
            )
        if det["sla_rate"] < base["sla_rate"]:
            violations.append(
                f"sla: satisfaction with the detector ({det['sla_rate']:.2%}) "
                f"is worse than baseline ({base['sla_rate']:.2%})"
            )
    return violations


def _detection(r: GrayCellResult, key: str, spec: str) -> str:
    """A detection-report number for the table; ``-`` where none applies."""
    value = None if r.detection is None else r.detection[key]
    return "-" if value is None else format(value, spec)


def _pooled_line(results: list[GrayCellResult]) -> str:
    det, base = (pooled_stats(results, mode) for mode in MODES)
    return (
        f"pooled: detector p99={det['p99']:.4f}s sla={det['sla_rate']:.2%} | "
        f"baseline p99={base['p99']:.4f}s sla={base['sla_rate']:.2%}"
    )


CAMPAIGN = Campaign(
    name="gray",
    doc=__doc__,
    run_cell=run_gray_cell,
    modes=MODES,
    default=(5, 14.0),
    quick=(2, 8.0),
    title="gray-failure campaign (detector vs. baseline)",
    columns=(
        ("faults", lambda r: r.gray_faults),
        ("reads", lambda r: r.reads_issued),
        ("p99", lambda r: f"{r.p99:.4f}"),
        ("sla", lambda r: f"{r.sla_rate:.2%}"),
        ("late", lambda r: r.timing_failures),
        (
            "eject/hedge/probe",
            lambda r: f"{r.detector_ejections}/{r.detector_hedges}/{r.detector_probes}",
        ),
        ("ttd", lambda r: _detection(r, "mean_time_to_detect", ".3f")),
        ("fp", lambda r: _detection(r, "false_positive_rate", ".0%")),
    ),
    cell_fields=(
        "gray_faults", "faults_by_kind", "reads_issued", "timing_failures",
        "p99", "sla_rate", "detector_ejections", "detector_hedges",
        "detector_probes", "suspects_total", "clears_total",
        "still_suspected", "detection", "violations",
    ),
    telemetry_title="detector-cell telemetry",
    telemetry_modes=("detector",),
    acceptance=acceptance,
    pooled_stats=pooled_stats,
    footer=_pooled_line,
)


def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> int:
    return campaign_main(CAMPAIGN, argv, prog)


if __name__ == "__main__":
    sys.exit(main())
