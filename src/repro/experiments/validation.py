"""Model-validation experiments (extending §6.1's "Validation of
Probabilistic Model").

Two studies the paper's evaluation implies but does not plot:

* :func:`run_staleness_validation` — compares the *predicted* staleness
  factor ``P(A_s(t) <= a)`` (Eq. 4, or any pluggable model) against the
  *empirical* freshness of the secondary group, measured from inside the
  simulator (ground truth the real system could not observe cheaply:
  sequencer GSN minus secondary CSN at sampling instants).  Under Poisson
  update arrivals the Poisson model should calibrate well; under bursty
  arrivals it over-estimates freshness above the mean rate while the
  rate-mixture model stays closer (see §5.1.3's non-Poisson note and
  ``repro.core.staleness``).

* :func:`run_hotspot_validation` — quantifies the hot-spot avoidance
  claim of §5.3 (Algorithm 1 "alleviates the occurrence of such
  'hot-spots', to achieve a more balanced utilization") by running the
  same workload with and without the decreasing-``ert`` visiting order
  and comparing the imbalance of reads served across replicas.

Run: ``python -m repro.experiments.validation [--quick] [--jobs N]``
(``--jobs`` runs the independent studies across worker processes).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.qos import QoSSpec
from repro.core.selection import StateBasedSelection
from repro.core.service import ServiceConfig, build_testbed
from repro.core.staleness import (
    PoissonStalenessModel,
    RateMixtureStalenessModel,
    StalenessModel,
)
from repro.experiments.analysis import max_mean_imbalance
from repro.experiments.report import format_table
from repro.experiments.runner import CellSpec, add_jobs_argument, run_cells
from repro.sim.rng import Normal
from repro.workloads.generators import BurstyUpdater, OpenLoopUpdater, PeriodicReader


# ---------------------------------------------------------------------------
# Staleness-model calibration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StalenessValidationRow:
    """Calibration of one threshold: empirical vs. model-predicted."""

    threshold: int
    empirical: float  # ground-truth P(A_s <= a) over the sampling instants
    predicted: float  # mean model prediction over the same instants
    samples: int

    @property
    def error(self) -> float:
        return self.predicted - self.empirical


def run_staleness_validation(
    update_rate: float = 2.0,
    lazy_update_interval: float = 2.0,
    duration: float = 240.0,
    thresholds: Sequence[int] = (0, 1, 2, 3, 4, 6, 8),
    bursty: bool = False,
    staleness_model: Optional[StalenessModel] = None,
    seed: int = 0,
) -> list[StalenessValidationRow]:
    """Measure model calibration against simulator ground truth.

    A feed client issues updates (Poisson at ``update_rate``, or bursty
    with the same mean rate); an observer client issues periodic reads
    (which keeps the performance/staleness broadcasts flowing) and its
    predictor is sampled alongside the true staleness of the secondary
    group.
    """
    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=4,
        lazy_update_interval=lazy_update_interval,
        read_service_time=Normal(0.020, 0.005, floor=0.002),
    )
    testbed = build_testbed(config, seed=seed)
    service = testbed.service
    feed = service.create_client("feed", read_only_methods={"get"})
    observer = service.create_client(
        "observer",
        read_only_methods={"get"},
        staleness_model=staleness_model,
    )

    if bursty:
        # Bursts at 5x the mean rate, 20% duty cycle.
        BurstyUpdater(
            testbed.sim, feed, testbed.rng,
            burst_rate=update_rate * 5.0,
            burst_length=lazy_update_interval / 2.0,
            idle_length=2.0 * lazy_update_interval,
            duration=duration,
        )
    else:
        OpenLoopUpdater(
            testbed.sim, feed, testbed.rng, rate=update_rate, duration=duration
        )
    qos = QoSSpec(staleness_threshold=100, deadline=2.0, min_probability=0.1)
    PeriodicReader(
        testbed.sim, observer, qos, period=0.5, count=int(duration / 0.5) - 2
    )

    sequencer = service.sequencer
    secondary = service.secondaries[0]
    samples: list[tuple[int, dict[int, float]]] = []
    warmup = 4 * lazy_update_interval

    def sample() -> None:
        if testbed.sim.now >= warmup:
            actual = max(0, sequencer.my_gsn - secondary.my_csn)
            predicted = {
                a: observer.predictor.staleness_factor(a, testbed.sim.now)
                for a in thresholds
            }
            samples.append((actual, predicted))
        testbed.sim.schedule(0.25, sample)

    testbed.sim.schedule(0.25, sample)
    testbed.sim.run(until=duration)

    rows = []
    for a in thresholds:
        hits = sum(1 for actual, _ in samples if actual <= a)
        mean_predicted = sum(p[a] for _, p in samples) / len(samples)
        rows.append(
            StalenessValidationRow(
                threshold=a,
                empirical=hits / len(samples),
                predicted=mean_predicted,
                samples=len(samples),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Hot-spot avoidance
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HotspotValidationResult:
    """Read-load balance with and without the ert visiting order."""

    with_ert_reads: dict[str, int]
    without_ert_reads: dict[str, int]

    @property
    def with_ert_imbalance(self) -> float:
        return max_mean_imbalance(list(self.with_ert_reads.values()))

    @property
    def without_ert_imbalance(self) -> float:
        return max_mean_imbalance(list(self.without_ert_reads.values()))


def _hotspot_cell(
    avoid: bool, reads: int, deadline: float, seed: int
) -> dict[str, int]:
    """One hot-spot workload (module-level so cells can pickle)."""
    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=6,
        lazy_update_interval=2.0,
        read_service_time=Normal(0.050, 0.010, floor=0.002),
    )
    testbed = build_testbed(config, seed=seed)
    service = testbed.service
    client = service.create_client(
        "c",
        read_only_methods={"get"},
        strategy=StateBasedSelection(hot_spot_avoidance=avoid),
    )
    qos = QoSSpec(staleness_threshold=50, deadline=deadline,
                  min_probability=0.9)
    PeriodicReader(testbed.sim, client, qos, period=0.2, count=reads)
    testbed.sim.run(until=reads * 0.2 + 30.0)
    return {
        r.name: r.reads_served.value
        for r in service.primaries + service.secondaries
    }


def run_hotspot_validation(
    reads: int = 300,
    deadline: float = 0.200,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> HotspotValidationResult:
    """Same workload twice: Algorithm 1 vs. the cdf-greedy variant."""
    common = dict(reads=reads, deadline=deadline, seed=seed)
    specs = [
        CellSpec(key=avoid, fn=_hotspot_cell, kwargs=dict(avoid=avoid))
        for avoid in (True, False)
    ]
    with_ert, without_ert = run_cells(
        specs, jobs=jobs, label="hotspot", common=common
    )
    return HotspotValidationResult(
        with_ert_reads=with_ert, without_ert_reads=without_ert
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def render_staleness(title: str, rows: list[StalenessValidationRow]) -> str:
    return format_table(
        ["a", "empirical P(A<=a)", "predicted", "error", "samples"],
        [(r.threshold, r.empirical, r.predicted, r.error, r.samples) for r in rows],
        title=title,
    )


def _staleness_cell(
    duration: float, bursty: bool, model: Optional[str]
) -> list[StalenessValidationRow]:
    """One calibration study; the model is named so the spec pickles."""
    staleness_model = RateMixtureStalenessModel() if model == "rate-mixture" else None
    return run_staleness_validation(
        duration=duration, bursty=bursty, staleness_model=staleness_model
    )


def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> None:
    parser = argparse.ArgumentParser(
        prog=prog, description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--quick", action="store_true", help="shorter runs, fewer reads"
    )
    add_jobs_argument(parser)
    args = parser.parse_args(argv)
    quick, jobs = args.quick, args.jobs
    duration = 120.0 if quick else 240.0

    studies = [
        ("Staleness model calibration — Poisson arrivals, Poisson model (Eq. 4)",
         dict(bursty=False, model=None)),
        ("Staleness model calibration — bursty arrivals, Poisson model",
         dict(bursty=True, model=None)),
        ("Staleness model calibration — bursty arrivals, rate-mixture model",
         dict(bursty=True, model="rate-mixture")),
    ]
    specs = [
        CellSpec(key=title, fn=_staleness_cell, kwargs=kwargs)
        for title, kwargs in studies
    ]
    runs = run_cells(
        specs, jobs=jobs, label="staleness", common=dict(duration=duration)
    )
    for spec, rows in zip(specs, runs):
        print(render_staleness(spec.key, rows))
        print()
    hotspot = run_hotspot_validation(reads=150 if quick else 300, jobs=jobs)
    print(format_table(
        ["strategy", "max/mean reads", "per-replica reads"],
        [
            ("Algorithm 1 (ert order)", hotspot.with_ert_imbalance,
             dict(sorted(hotspot.with_ert_reads.items()))),
            ("cdf-greedy (no ert)", hotspot.without_ert_imbalance,
             dict(sorted(hotspot.without_ert_reads.items()))),
        ],
        title="Hot-spot avoidance (§5.3): read-load balance",
    ))


if __name__ == "__main__":
    main()
