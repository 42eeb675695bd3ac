"""Shared experiment runners.

Two kinds of measurement, matching the paper's §6:

* :func:`measure_selection_overhead` — *wall-clock* cost of one
  prediction + selection pass over ``n`` replicas with sliding windows of
  size ``l`` (the quantity in Figure 3).  The repository is pre-filled
  with realistic samples; the timed region is exactly what the client
  gateway executes per read: compute every candidate's response-time
  distribution values, the staleness factor, and run Algorithm 1.
* :func:`run_figure4_cell` — one full simulated run of the §6 testbed for
  a given (deadline, P_c, LUI) cell, returning client 2's averages with
  95 % binomial confidence intervals.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.prediction import ResponseTimePredictor
from repro.core.qos import QoSSpec
from repro.core.repository import ClientInfoRepository
from repro.core.requests import PerfBroadcast, ReadOutcome, StalenessInfo
from repro.core.selection import ReplicaView, SelectionStrategy, StateBasedSelection
from repro.obs.calibration import CalibrationTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeseriesRecorder
from repro.sim.rng import RngRegistry
from repro.stats.confidence import binomial_confidence_interval
from repro.stats.summary import percentile
from repro.workloads.scenarios import build_paper_scenario


# ---------------------------------------------------------------------------
# Figure 3: selection overhead
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SelectionOverheadResult:
    """Per-read selection cost, microseconds (Figure 3): means over the
    repetitions, the median total of one repetition, and the median share
    of one repetition spent computing distributions (paper: ~90 %).  The
    shape checks read medians, so that the few repetitions the host
    preempted cannot move them."""

    num_replicas: int
    window_size: int
    total_us: float
    distribution_us: float  # distribution computation
    selection_us: float  # Algorithm 1
    repetitions: int
    median_total_us: float
    distribution_share: float = 0.0


def _synthetic_repository(
    num_replicas: int,
    window_size: int,
    seed: int,
    num_primaries: int,
    lazy_update_interval: float,
) -> tuple[ClientInfoRepository, list[str], list[str]]:
    """A repository pre-filled as it would be mid-run on the §6 testbed."""
    rng = RngRegistry(seed).stream("figure3")
    repo = ClientInfoRepository(window_size)
    primaries = [f"p{i}" for i in range(1, min(num_primaries, num_replicas) + 1)]
    secondaries = [f"s{i}" for i in range(1, num_replicas - len(primaries) + 1)]
    for name in primaries + secondaries:
        for _ in range(window_size):
            ts = max(0.002, rng.gauss(0.100, 0.050))
            tq = max(0.0, rng.gauss(0.010, 0.010))
            tb = rng.uniform(0.0, lazy_update_interval)
            repo.record_broadcast(
                PerfBroadcast(replica=name, ts=ts, tq=tq, tb=tb)
            )
        repo.record_reply(name, tg=rng.uniform(0.0005, 0.002), now=rng.uniform(0, 10))
    repo.record_staleness(
        PerfBroadcast(
            replica="p1",
            ts=0.1,
            tq=0.01,
            tb=None,
            staleness=StalenessInfo(n_u=5, t_u=10.0, n_l=2, t_l=0.7),
        ),
        now=10.0,
    )
    return repo, primaries, secondaries


def measure_selection_overhead(
    num_replicas: int,
    window_size: int,
    repetitions: int = 200,
    seed: int = 0,
    deadline: float = 0.150,
    staleness_threshold: int = 2,
    min_probability: float = 0.9,
    lazy_update_interval: float = 2.0,
    strategy: Optional[SelectionStrategy] = None,
) -> SelectionOverheadResult:
    """Time one client-side prediction + selection pass (Figure 3).

    The scalar cdf methods cache nothing, so every repetition pays the
    paper's Figure 3 semantics: every candidate evaluated from its windows.
    """
    if num_replicas < 1:
        raise ValueError("need at least one replica")
    repo, primaries, secondaries = _synthetic_repository(
        num_replicas, window_size, seed, num_primaries=4,
        lazy_update_interval=lazy_update_interval,
    )
    predictor = ResponseTimePredictor(repo, lazy_update_interval)
    qos = QoSSpec(staleness_threshold, deadline, min_probability)
    strategy = strategy or StateBasedSelection()
    now = 11.0

    dist_time = 0.0
    select_time = 0.0
    totals = []
    shares = []
    for rep in range(repetitions):
        t0 = time.perf_counter()
        candidates = []
        for name in primaries:
            cdf = predictor.immediate_cdf(name, qos.deadline)
            candidates.append(
                ReplicaView(name, True, cdf, cdf, repo.ert(name, now + rep))
            )
        for name in secondaries:
            immediate, delayed = predictor.response_cdfs(name, qos.deadline)
            candidates.append(
                ReplicaView(
                    name, False, immediate, delayed, repo.ert(name, now + rep)
                )
            )
        stale_factor = predictor.staleness_factor(qos.staleness_threshold, now + rep)
        t1 = time.perf_counter()
        strategy.select(candidates, qos, stale_factor)
        t2 = time.perf_counter()
        dist_time += t1 - t0
        select_time += t2 - t1
        totals.append(t2 - t0)
        shares.append((t1 - t0) / (t2 - t0) if t2 > t0 else 0.0)

    total = dist_time + select_time
    return SelectionOverheadResult(
        num_replicas=num_replicas,
        window_size=window_size,
        total_us=1e6 * total / repetitions,
        distribution_us=1e6 * dist_time / repetitions,
        selection_us=1e6 * select_time / repetitions,
        repetitions=repetitions,
        median_total_us=1e6 * percentile(totals, 50),
        distribution_share=percentile(shares, 50),
    )


# ---------------------------------------------------------------------------
# Figure 4: adaptivity of the probabilistic model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Figure4Cell:
    """One (deadline, P_c, LUI) cell of Figure 4, from one full run."""

    deadline: float
    min_probability: float
    lazy_update_interval: float
    avg_replicas_selected: float
    timing_failure_probability: float
    ci_low: float
    ci_high: float
    reads: int
    timing_failures: int
    deferred_fraction: float
    mean_response_time: float
    # Telemetry payloads, populated only with ``collect_metrics=True``:
    # a MetricsRegistry snapshot and a CalibrationTracker.to_dict().  Kept
    # as plain dicts so cells stay picklable for the parallel runner.
    metrics: Optional[dict] = None
    calibration: Optional[dict] = None
    # Timeline payload, populated only with ``timeseries=<interval>``: a
    # Timeline.to_dict() (plain dict, picklable; see obs/timeseries.py).
    timeline: Optional[dict] = None

    def meets_qos(self) -> bool:
        """Did the observed failure probability stay within 1 − P_c?"""
        return self.timing_failure_probability <= 1.0 - self.min_probability + 1e-9

    @classmethod
    def from_reads(
        cls,
        outcomes: Sequence[ReadOutcome],
        deadline: float,
        min_probability: float,
        lazy_update_interval: float,
    ) -> "Figure4Cell":
        """The §6 statistics of one client's reads: every field is 0 with
        no reads, and the mean response time is over answered reads."""
        reads = len(outcomes)
        failures = sum(1 for o in outcomes if o.timing_failure)
        times = [o.response_time for o in outcomes if o.response_time is not None]
        ci_low, ci_high = failure_interval(failures, reads)
        return cls(
            deadline=deadline,
            min_probability=min_probability,
            lazy_update_interval=lazy_update_interval,
            avg_replicas_selected=(
                sum(o.replicas_selected for o in outcomes) / reads
                if reads else 0.0
            ),
            timing_failure_probability=failures / reads if reads else 0.0,
            ci_low=ci_low,
            ci_high=ci_high,
            reads=reads,
            timing_failures=failures,
            deferred_fraction=(
                sum(1 for o in outcomes if o.deferred) / reads if reads else 0.0
            ),
            mean_response_time=sum(times) / len(times) if times else 0.0,
        )


def failure_interval(failures: int, reads: int) -> tuple[float, float]:
    """95 % binomial CI of a timing-failure probability; (0, 0) with no reads."""
    if not reads:
        return 0.0, 0.0
    return binomial_confidence_interval(failures, reads, 0.95)


def run_figure4_cell(
    deadline: float,
    min_probability: float,
    lazy_update_interval: float,
    total_requests: int = 1000,
    seed: int = 0,
    staleness_threshold: int = 2,
    strategy2: Optional[SelectionStrategy] = None,
    warmup_requests: int = 0,
    request_delay: float = 1.0,
    collect_metrics: bool = False,
    timeseries: Optional[float] = None,
) -> Figure4Cell:
    """Run the §6 testbed once and summarize client 2's reads.

    With ``collect_metrics=True`` the testbed shares one
    :class:`MetricsRegistry` and one :class:`CalibrationTracker`, and the
    returned cell carries their serialized payloads (mergeable across
    cells with :meth:`MetricsRegistry.merge` / :meth:`CalibrationTracker
    .merge`).

    ``timeseries`` attaches a :class:`TimeseriesRecorder` at that tick
    interval (simulated seconds) and returns the cell with a
    ``timeline`` payload; ``None`` (the default) schedules nothing at
    all, so undashboarded runs stay bit-identical.
    """
    registry = MetricsRegistry() if collect_metrics or timeseries else None
    tracker = CalibrationTracker() if collect_metrics else None
    scenario = build_paper_scenario(
        deadline=deadline,
        min_probability=min_probability,
        lazy_update_interval=lazy_update_interval,
        staleness_threshold=staleness_threshold,
        total_requests=total_requests,
        request_delay=request_delay,
        seed=seed,
        strategy2=strategy2,
        warmup_requests=warmup_requests,
        metrics=registry,
        calibration=tracker,
    )
    recorder = None
    if timeseries is not None:
        recorder = TimeseriesRecorder(
            scenario.sim, registry, interval=timeseries
        ).start()
    scenario.run()
    if recorder is not None:
        recorder.flush()
    cell = Figure4Cell.from_reads(
        scenario.client2.read_outcomes,
        deadline,
        min_probability,
        lazy_update_interval,
    )
    return dataclasses.replace(
        cell,
        metrics=(
            registry.snapshot()
            if registry is not None and collect_metrics
            else None
        ),
        calibration=tracker.to_dict() if tracker is not None else None,
        timeline=(
            recorder.timeline().to_dict() if recorder is not None else None
        ),
    )
