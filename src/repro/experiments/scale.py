"""Million-user cells: the fluid client tier against the discrete simulator.

Two measurements live here:

* **Validation** (:func:`run_scale_validation`) — at small populations the
  aggregated tier and the discrete per-request simulator are run on the
  *same* cell demand (constant total read/update rates, split per user),
  and their timing-failure probabilities, deferred fractions, and
  response-time CDFs are compared point-wise with Wilson-interval overlap
  (:func:`repro.stats.confidence.proportions_agree`).  Only the pool's
  *modeled* arrivals enter the comparison — its probe subsample is itself
  discretely simulated and would dilute the test.

  The constant-demand design is deliberate: Poisson superposition is
  exact in ``N``, so the fluid approximation's error is a function of the
  cell's *utilization*, not of the population count.  Validating at fixed
  light demand checks the outcome model itself; the fluid tier's validity
  envelope (capacity provisioned per capita) is documented in DESIGN.md
  §13.

* **Scaling surface** (:func:`run_scale_surface`) — Figure-4-style cells
  at 10k/100k/1M/5M users with *per-user* rates, measuring wall-clock per
  cell and arrival throughput, plus a speedup estimate against the
  discrete simulator extrapolated from a small calibration run.

Run: ``python -m repro.experiments.scale [--validate] [--smoke]`` or via
``repro scale``.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.experiments.harness import Figure4Cell, failure_interval
from repro.experiments.report import format_table
from repro.experiments.runner import (
    CellSpec,
    add_jobs_argument,
    comma_ints,
    run_cells,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import Timeline, TimeseriesRecorder
from repro.sim.rng import Normal
from repro.stats.confidence import proportions_agree
from repro.workloads.aggregate import AggregatedClientPool, PopulationSpec
from repro.workloads.generators import OpenLoopUpdater, PoissonReader

SCALE_USERS = (10_000, 100_000, 1_000_000, 5_000_000)
DEADLINES_MS = (100, 160, 220)

# Per-user rates for the scaling surface: a population of N users presents
# N times this demand (the cell is assumed provisioned for it; the fluid
# tier models the outcome distributions its probes measure).
READ_RATE_PER_USER = 0.05
UPDATE_RATE_PER_USER = 0.01

# Constant *cell* demand for the validation comparison (split per user),
# kept light so both tiers run in the regime where the fluid assumption
# holds and the discrete reference is cheap enough to simulate exactly.
VALIDATION_READ_RATE = 2.0
VALIDATION_UPDATE_RATE = 0.5


def scale_config(lazy_update_interval: float = 2.0) -> ServiceConfig:
    """The cell used by scale experiments: §6 testbed with 50 ms reads.

    Lighter service times than the paper's 100 ms keep the *probe*
    traffic (and the discrete validation reference) well inside the
    light-utilization regime the fluid tier assumes.
    """
    return ServiceConfig(
        lazy_update_interval=lazy_update_interval,
        read_service_time=Normal(0.050, 0.020, floor=0.005),
    )


# ---------------------------------------------------------------------------
# One cell
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScaleCellResult:
    """One (users, QoS) cell run by either tier, with performance data."""

    users: int
    mode: str  # "aggregate" | "discrete"
    cell: Figure4Cell
    wall_seconds: float
    sim_seconds: float
    arrivals: int  # reads put through the tier (incl. probes / all discrete)
    batches: int  # aggregate tier only; 0 for discrete
    probe_reads: int  # aggregate tier only; 0 for discrete
    # Validation inputs: modeled-only counts (aggregate) or full counts
    # (discrete) plus response-CDF numerator counts on ``cdf_points``.
    sample_reads: int = 0
    sample_failures: int = 0
    sample_deferred: int = 0
    cdf_points: tuple[float, ...] = ()
    cdf_counts: tuple[int, ...] = ()
    # Timeline.to_dict() of an optional per-cell recorder (``repro dash``
    # input); plain dict so cells stay picklable for the runner.
    timeline: Optional[dict] = None

    @property
    def arrivals_per_wall_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.arrivals / self.wall_seconds


def run_scale_cell(
    users: int,
    deadline: float = 0.160,
    min_probability: float = 0.9,
    lazy_update_interval: float = 2.0,
    staleness_threshold: int = 2,
    duration: float = 60.0,
    warmup: float = 10.0,
    seed: int = 0,
    mode: str = "aggregate",
    read_rate_per_user: float = READ_RATE_PER_USER,
    update_rate_per_user: float = UPDATE_RATE_PER_USER,
    total_read_rate: Optional[float] = None,
    total_update_rate: Optional[float] = None,
    batch_window: float = 0.25,
    probe_reads: int = 1,
    probe_updates: int = 1,
    drain: float = 5.0,
    timeseries: Optional[float] = None,
) -> ScaleCellResult:
    """Run one cell with either tier and summarize it as a Figure4Cell.

    ``total_read_rate``/``total_update_rate`` override the per-user rates
    with a constant cell demand (the validation configuration).  The
    discrete mode exploits Poisson superposition: one
    :class:`PoissonReader` at the population's total rate *is* the exact
    per-request simulation of ``users`` independent clients.
    """
    if mode not in ("aggregate", "discrete"):
        raise ValueError(f"unknown mode {mode!r}")
    read_rate = (
        total_read_rate if total_read_rate is not None
        else users * read_rate_per_user
    )
    update_rate = (
        total_update_rate if total_update_rate is not None
        else users * update_rate_per_user
    )
    qos = QoSSpec(staleness_threshold, deadline, min_probability)
    registry = MetricsRegistry() if timeseries is not None else None
    testbed = build_testbed(
        scale_config(lazy_update_interval), seed=seed, metrics=registry
    )
    client = testbed.service.create_client(
        "scale-gw", read_only_methods={"get"}, default_qos=qos
    )
    recorder = None
    if registry is not None:
        recorder = TimeseriesRecorder(
            testbed.sim, registry, interval=timeseries
        ).start()
    # Response-CDF comparison grid: around the deadline, where the
    # timing-failure decision lives.
    cdf_points = (0.5 * deadline, deadline, 1.5 * deadline)

    start = testbed.sim.now
    t0 = time.perf_counter()
    if mode == "aggregate":
        spec = PopulationSpec(
            name=f"pop-{users}",
            clients=users,
            qos=qos,
            read_rate=read_rate / users,
            update_rate=update_rate / users,
        )
        pool = AggregatedClientPool(
            testbed.sim,
            client,
            spec,
            duration=duration,
            batch_window=batch_window,
            probe_reads=probe_reads,
            probe_updates=probe_updates,
            seed=seed,
            warmup=warmup,
        )
        testbed.sim.run(until=start + duration + drain)
        if recorder is not None:
            recorder.flush()
        wall = time.perf_counter() - t0
        stats = pool.stats
        reads = stats.reads
        failures = stats.timing_failures
        ci = failure_interval(failures, reads)
        cell = Figure4Cell(
            deadline=deadline,
            min_probability=min_probability,
            lazy_update_interval=lazy_update_interval,
            avg_replicas_selected=stats.avg_replicas_selected,
            timing_failure_probability=stats.failure_probability,
            ci_low=ci[0],
            ci_high=ci[1],
            reads=reads,
            timing_failures=failures,
            deferred_fraction=stats.deferred_fraction,
            mean_response_time=stats.mean_response_time,
        )
        counts = np.rint(
            stats.modeled_response_cdf(cdf_points) * stats.reads_modeled
        ).astype(int)
        return ScaleCellResult(
            users=users,
            mode=mode,
            cell=cell,
            wall_seconds=wall,
            sim_seconds=duration,
            arrivals=reads,
            batches=stats.batches,
            probe_reads=stats.probe_reads,
            sample_reads=stats.reads_modeled,
            sample_failures=stats.failures_modeled,
            sample_deferred=stats.deferred_modeled,
            cdf_points=cdf_points,
            cdf_counts=tuple(int(c) for c in counts),
            timeline=(
                recorder.timeline().to_dict()
                if recorder is not None
                else None
            ),
        )

    # ---- discrete reference ------------------------------------------
    reader = PoissonReader(
        testbed.sim, client, testbed.rng, qos,
        rate=read_rate, duration=duration,
    )
    if update_rate > 0:
        OpenLoopUpdater(
            testbed.sim, client, testbed.rng,
            rate=update_rate, duration=duration,
        )
    testbed.sim.run(until=start + duration + drain)
    if recorder is not None:
        recorder.flush()
    wall = time.perf_counter() - t0
    cutoff = start + warmup
    outcomes = [o for t, o in reader.records if t >= cutoff]
    cell = Figure4Cell.from_reads(
        outcomes, deadline, min_probability, lazy_update_interval
    )
    times = [o.response_time for o in outcomes if o.response_time is not None]
    counts = tuple(
        sum(1 for rt in times if rt <= x) for x in cdf_points
    )
    return ScaleCellResult(
        users=users,
        mode=mode,
        cell=cell,
        wall_seconds=wall,
        sim_seconds=duration,
        arrivals=reader.issued,
        batches=0,
        probe_reads=0,
        sample_reads=cell.reads,
        sample_failures=cell.timing_failures,
        sample_deferred=sum(1 for o in outcomes if o.deferred),
        cdf_points=cdf_points,
        cdf_counts=counts,
        timeline=(
            recorder.timeline().to_dict() if recorder is not None else None
        ),
    )


# ---------------------------------------------------------------------------
# Validation: fluid vs discrete under Wilson-interval overlap
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ValidationCell:
    """Aggregate-vs-discrete agreement for one population size."""

    users: int
    seed: int
    aggregate: ScaleCellResult
    discrete: ScaleCellResult
    failure_agree: bool
    deferred_agree: bool
    cdf_agree: tuple[bool, ...]

    @property
    def agree(self) -> bool:
        return self.failure_agree and self.deferred_agree and all(self.cdf_agree)


def compare_cells(
    aggregate: ScaleCellResult,
    discrete: ScaleCellResult,
    level: float = 0.95,
    seed: int = 0,
) -> ValidationCell:
    """Wilson-overlap agreement on failure/deferral/CDF proportions of
    the two tiers' cells at ``seed``."""
    failure_agree = proportions_agree(
        aggregate.sample_failures, aggregate.sample_reads,
        discrete.sample_failures, discrete.sample_reads, level,
    )
    deferred_agree = proportions_agree(
        aggregate.sample_deferred, aggregate.sample_reads,
        discrete.sample_deferred, discrete.sample_reads, level,
    )
    cdf_agree = tuple(
        proportions_agree(
            ca, aggregate.sample_reads, cd, discrete.sample_reads, level
        )
        for ca, cd in zip(aggregate.cdf_counts, discrete.cdf_counts)
    )
    return ValidationCell(
        users=aggregate.users,
        seed=seed,
        aggregate=aggregate,
        discrete=discrete,
        failure_agree=failure_agree,
        deferred_agree=deferred_agree,
        cdf_agree=cdf_agree,
    )


@dataclass
class ScaleValidationResult:
    cells: list[ValidationCell] = field(default_factory=list)

    @property
    def all_agree(self) -> bool:
        return all(cell.agree for cell in self.cells)


def run_scale_validation(
    populations: Sequence[int] = (100, 1000),
    seed: int = 0,
    duration: float = 240.0,
    warmup: float = 20.0,
    deadline: float = 0.160,
    min_probability: float = 0.9,
    lazy_update_interval: float = 2.0,
    staleness_threshold: int = 2,
    total_read_rate: float = VALIDATION_READ_RATE,
    total_update_rate: float = VALIDATION_UPDATE_RATE,
    batch_window: float = 2.0,
    level: float = 0.95,
    jobs: Optional[int] = 1,
    progress: bool = False,
    timeseries: Optional[float] = None,
) -> ScaleValidationResult:
    """Run both tiers per population and compare (constant cell demand).

    The default ``batch_window`` is wider than the production 0.25 s so
    the per-batch probe cap leaves most of the light validation demand to
    the *model* — the comparison needs modeled arrivals, and probes would
    otherwise eat the whole 2 req/s stream.
    """
    common = dict(
        deadline=deadline,
        min_probability=min_probability,
        lazy_update_interval=lazy_update_interval,
        staleness_threshold=staleness_threshold,
        duration=duration,
        warmup=warmup,
        seed=seed,
        total_read_rate=total_read_rate,
        total_update_rate=total_update_rate,
        batch_window=batch_window,
        timeseries=timeseries,
    )
    specs = [
        CellSpec(
            key=(users, mode),
            fn=run_scale_cell,
            kwargs=dict(users=users, mode=mode),
        )
        for users in populations
        for mode in ("aggregate", "discrete")
    ]
    cells = run_cells(
        specs, jobs=jobs, progress=progress, label="scale-validate",
        common=common,
    )
    by_key = {spec.key: cell for spec, cell in zip(specs, cells)}
    result = ScaleValidationResult()
    for users in populations:
        result.cells.append(
            compare_cells(
                by_key[(users, "aggregate")],
                by_key[(users, "discrete")],
                level,
                seed,
            )
        )
    return result


# ---------------------------------------------------------------------------
# Scaling surface + speedup
# ---------------------------------------------------------------------------
@dataclass
class ScaleSurfaceResult:
    cells: dict[tuple[int, int], ScaleCellResult] = field(default_factory=dict)
    # Discrete calibration: measured per-request wall cost (seconds).
    discrete_seconds_per_request: float = 0.0
    discrete_calibration_requests: int = 0

    def speedup(self, users: int, deadline_ms: int) -> float:
        """Measured aggregate wall vs discrete extrapolated to the same cell.

        The discrete simulator's cost is linear in simulated requests (it
        routes every one end-to-end), so its cost for N users is the
        calibrated per-request cost times the cell's arrival count.
        """
        cell = self.cells[(users, deadline_ms)]
        if cell.wall_seconds <= 0 or self.discrete_seconds_per_request <= 0:
            return 0.0
        discrete_wall = self.discrete_seconds_per_request * cell.arrivals
        return discrete_wall / cell.wall_seconds


def run_scale_surface(
    users_list: Sequence[int] = SCALE_USERS,
    deadlines_ms: Sequence[int] = DEADLINES_MS,
    duration: float = 60.0,
    warmup: float = 10.0,
    seed: int = 0,
    calibration_users: int = 500,
    calibration_duration: float = 30.0,
    jobs: Optional[int] = 1,
    progress: bool = False,
    timeseries: Optional[float] = None,
) -> ScaleSurfaceResult:
    """The Figure-4-style surface at population scale, aggregate tier only."""
    common = dict(
        duration=duration, warmup=warmup, seed=seed, mode="aggregate",
        timeseries=timeseries,
    )
    specs = [
        CellSpec(
            key=(users, deadline_ms),
            fn=run_scale_cell,
            kwargs=dict(users=users, deadline=deadline_ms / 1000.0),
        )
        for users in users_list
        for deadline_ms in deadlines_ms
    ]
    cells = run_cells(
        specs, jobs=jobs, progress=progress, label="scale", common=common,
    )
    result = ScaleSurfaceResult()
    for spec, cell in zip(specs, cells):
        result.cells[spec.key] = cell

    # Calibrate the discrete cost on a small population at the same
    # per-user rates (cost per simulated request is scale-invariant).
    reference = run_scale_cell(
        users=calibration_users,
        duration=calibration_duration,
        warmup=min(warmup, calibration_duration / 3),
        seed=seed,
        mode="discrete",
    )
    if reference.arrivals:
        result.discrete_seconds_per_request = (
            reference.wall_seconds / reference.arrivals
        )
        result.discrete_calibration_requests = reference.arrivals
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def render_validation(result: ScaleValidationResult) -> str:
    rows = []
    for vc in result.cells:
        agg, ref = vc.aggregate, vc.discrete
        rows.append(
            (
                vc.users,
                f"{agg.sample_reads}/{ref.sample_reads}",
                f"{agg.sample_failures / max(1, agg.sample_reads):.3f}",
                f"{ref.sample_failures / max(1, ref.sample_reads):.3f}",
                "yes" if vc.failure_agree else "NO",
                f"{agg.sample_deferred / max(1, agg.sample_reads):.3f}",
                f"{ref.sample_deferred / max(1, ref.sample_reads):.3f}",
                "yes" if vc.deferred_agree else "NO",
                "/".join("y" if a else "N" for a in vc.cdf_agree),
                "PASS" if vc.agree else "FAIL",
            )
        )
    return format_table(
        ["users", "reads a/d", "P_fail agg", "P_fail disc", "agree",
         "defer agg", "defer disc", "agree", "cdf", "verdict"],
        rows,
        title="Aggregate vs discrete (Wilson 95% overlap, modeled arrivals only)",
    )


def render_surface(result: ScaleSurfaceResult) -> str:
    rows = []
    for key in sorted(result.cells):
        users, deadline_ms = key
        c = result.cells[key]
        rows.append(
            (
                users,
                deadline_ms,
                c.arrivals,
                f"{c.cell.timing_failure_probability:.4f}",
                f"{c.cell.avg_replicas_selected:.2f}",
                f"{c.cell.deferred_fraction:.3f}",
                f"{c.wall_seconds:.2f}",
                f"{c.arrivals_per_wall_second:,.0f}",
                f"{result.speedup(users, deadline_ms):,.0f}x",
            )
        )
    table = format_table(
        ["users", "deadline_ms", "reads", "P_fail", "avg_sel", "deferred",
         "wall_s", "reads/wall_s", "vs discrete"],
        rows,
        title="Scaling surface — aggregated client tier",
    )
    footer = (
        f"discrete cost calibration: "
        f"{result.discrete_seconds_per_request * 1e3:.3f} ms/request over "
        f"{result.discrete_calibration_requests} simulated requests"
    )
    return table + "\n" + footer


def _as_payload(result_v, result_s, meta):
    payload = {"meta": meta}
    if result_v is not None:
        payload["validation"] = {
            "all_agree": result_v.all_agree,
            "cells": [
                {
                    "users": vc.users,
                    "agree": vc.agree,
                    "failure_agree": vc.failure_agree,
                    "deferred_agree": vc.deferred_agree,
                    "cdf_agree": list(vc.cdf_agree),
                    "aggregate": {
                        "reads": vc.aggregate.sample_reads,
                        "failures": vc.aggregate.sample_failures,
                        "deferred": vc.aggregate.sample_deferred,
                        "wall_seconds": vc.aggregate.wall_seconds,
                    },
                    "discrete": {
                        "reads": vc.discrete.sample_reads,
                        "failures": vc.discrete.sample_failures,
                        "deferred": vc.discrete.sample_deferred,
                        "wall_seconds": vc.discrete.wall_seconds,
                    },
                }
                for vc in result_v.cells
            ],
        }
    if result_s is not None:
        payload["surface"] = {
            "discrete_seconds_per_request": result_s.discrete_seconds_per_request,
            "cells": [
                {
                    "users": users,
                    "deadline_ms": deadline_ms,
                    "reads": c.arrivals,
                    "timing_failure_probability":
                        c.cell.timing_failure_probability,
                    "avg_replicas_selected": c.cell.avg_replicas_selected,
                    "deferred_fraction": c.cell.deferred_fraction,
                    "wall_seconds": c.wall_seconds,
                    "arrivals_per_wall_second": c.arrivals_per_wall_second,
                    "speedup_vs_discrete": result_s.speedup(users, deadline_ms),
                }
                for (users, deadline_ms), c in sorted(result_s.cells.items())
            ],
        }
    return payload


def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog=prog, description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="compare aggregate vs discrete at N=100/1000 (Wilson overlap)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI shape: short N=100 validation + one 1M-user cell",
    )
    parser.add_argument(
        "--quick", action="store_true", help="one deadline, shorter cells"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero on disagreement or a blown wall-clock budget",
    )
    parser.add_argument(
        "--users", type=comma_ints, default=list(SCALE_USERS), metavar="N,M,...",
        help="comma-separated population sizes for the scaling surface",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--save", metavar="PATH", help="write results JSON")
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the JSONL telemetry artifact (repro dash input)",
    )
    add_jobs_argument(parser)
    args = parser.parse_args(argv)
    validate, smoke, quick = args.validate, args.smoke, args.quick
    seed, jobs = args.seed, args.jobs
    # Record 1 s-tick timelines only when an artifact will carry them.
    timeseries = 1.0 if args.metrics_out else None

    result_v = None
    result_s = None
    failures: list[str] = []

    if smoke:
        # CI shape: a short N=100 agreement check plus one 1M-user cell
        # that must clear its wall-clock budget.
        result_v = run_scale_validation(
            populations=(100,), seed=seed, duration=120.0, warmup=15.0,
            jobs=jobs, progress=jobs != 1, timeseries=timeseries,
        )
        result_s = run_scale_surface(
            users_list=(1_000_000,), deadlines_ms=(160,),
            duration=30.0, warmup=5.0, seed=seed,
            calibration_duration=15.0, jobs=1, timeseries=timeseries,
        )
        budget = 60.0
        cell = result_s.cells[(1_000_000, 160)]
        if cell.wall_seconds > budget:
            failures.append(
                f"1M-user cell took {cell.wall_seconds:.1f}s "
                f"(budget {budget:.0f}s)"
            )
        speedup = result_s.speedup(1_000_000, 160)
        if speedup < 100.0:
            failures.append(
                f"speedup vs discrete {speedup:.0f}x (need >= 100x)"
            )
    elif validate:
        result_v = run_scale_validation(
            populations=(100, 1000),
            seed=seed,
            duration=120.0 if quick else 240.0,
            warmup=15.0 if quick else 20.0,
            jobs=jobs,
            progress=jobs != 1,
            timeseries=timeseries,
        )
    else:
        result_s = run_scale_surface(
            users_list=args.users,
            deadlines_ms=(160,) if quick else DEADLINES_MS,
            duration=30.0 if quick else 60.0,
            warmup=5.0 if quick else 10.0,
            seed=seed,
            jobs=jobs,
            progress=jobs != 1,
            timeseries=timeseries,
        )

    if result_v is not None:
        print(render_validation(result_v))
        if not result_v.all_agree:
            failures.append("aggregate/discrete Wilson intervals disagree")
    if result_s is not None:
        if result_v is not None:
            print()
        print(render_surface(result_s))

    if args.save:
        from repro.experiments.report import save_results

        meta = {
            "experiment": "scale", "seed": seed, "quick": quick,
            "smoke": smoke, "validate": validate,
        }
        save_results(args.save, _as_payload(result_v, result_s, meta))
        print(f"\nsaved to {args.save}")

    if args.metrics_out:
        from repro.experiments.report import write_experiment_artifact

        payload = _as_payload(result_v, result_s, {})
        records = [
            {"event": section, **payload[section]}
            for section in ("validation", "surface")
            if section in payload
        ]
        sections = []
        if result_v is not None:
            sections.append(("validation", [
                *(c.aggregate for c in result_v.cells),
                *(c.discrete for c in result_v.cells),
            ]))
        if result_s is not None:
            sections.append(("surface", result_s.cells.values()))
        for kind, cells in sections:
            timeline = Timeline.merge_payloads(c.timeline for c in cells)
            if timeline is not None:
                records.append(
                    {"event": "timeline", "kind": kind,
                     "timeline": timeline.to_dict()}
                )
        write_experiment_artifact(
            args.metrics_out, "scale", records, seed=seed,
            quick=quick, smoke=smoke, validate=validate,
        )
        print(f"telemetry written to {args.metrics_out}")

    if failures:
        for line in failures:
            print(f"CHECK FAILED: {line}")
        return 1 if args.check else 0
    if args.check:
        print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
