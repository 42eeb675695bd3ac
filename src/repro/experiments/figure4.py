"""Figure 4: adaptivity of the probabilistic model (both panels).

The §6 validation experiment: 10 replicas (4 primary + 6 secondary) plus
the sequencer; two clients issuing 1000 alternating write/read requests
with a 1000 ms request delay.  Client 1 is fixed at ``<a=4, d=200 ms,
P_c=0.1>``; client 2 sweeps its deadline with ``a=2`` for each combination
of ``P_c ∈ {0.9, 0.5}`` and ``LUI ∈ {2 s, 4 s}``.

Panel (a): average number of replicas selected for client 2 — should fall
as the deadline loosens, be higher for the stricter P_c, and higher for
the longer LUI.  Panel (b): observed timing-failure probability with 95 %
binomial confidence intervals — should stay within ``1 − P_c`` and fall
with the deadline; the longer LUI gives more deferred reads and therefore
more timing failures.

Run: ``python -m repro.experiments.figure4`` (add ``--quick`` for a
shorter sweep, ``--jobs N`` to fan the independent cells out over N
worker processes; results are identical for any jobs value).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.selection import SelectionStrategy
from repro.experiments.harness import Figure4Cell, run_figure4_cell
from repro.experiments.report import format_series, format_table
from repro.experiments.runner import CellSpec, add_jobs_argument, run_cells

DEADLINES_MS = (80, 100, 120, 140, 160, 180, 200, 220)
PROBABILITIES = (0.9, 0.5)
LAZY_INTERVALS = (2.0, 4.0)

#: Recorder tick for telemetry-bearing sweeps: cells simulate hundreds to
#: a thousand seconds at a 1 s request delay, so a 5 s tick keeps ~40-200
#: points per cell.
TIMELINE_INTERVAL = 5.0


@dataclass
class Figure4Result:
    """All cells of the sweep, keyed by (P_c, LUI, deadline ms)."""

    cells: dict[tuple[float, float, int], Figure4Cell] = field(default_factory=dict)

    def series(self, probability: float, lui: float) -> list[Figure4Cell]:
        return [
            self.cells[(probability, lui, d)]
            for d in sorted({key[2] for key in self.cells})
            if (probability, lui, d) in self.cells
        ]

    def configurations(self) -> list[tuple[float, float]]:
        return sorted({(p, l) for (p, l, _) in self.cells}, reverse=True)

    # -- shape checks used by tests and EXPERIMENTS.md -------------------
    def selection_decreases_with_deadline(
        self, probability: float, lui: float, slack: float = 1.0
    ) -> bool:
        """Panel (a): tightest deadline needs at least as many replicas as
        the loosest (monotone trend with per-point noise allowance)."""
        series = self.series(probability, lui)
        if len(series) < 2:
            return True
        first, last = series[0], series[-1]
        monotone_ends = first.avg_replicas_selected >= last.avg_replicas_selected
        no_big_bumps = all(
            later.avg_replicas_selected
            <= earlier.avg_replicas_selected + slack
            for earlier, later in zip(series, series[1:])
        )
        return monotone_ends and no_big_bumps

    def qos_met_everywhere(self, probability: float, lui: float) -> bool:
        """Panel (b): observed failure probability within 1 − P_c."""
        return all(cell.meets_qos() for cell in self.series(probability, lui))


def run_figure4(
    deadlines_ms: Sequence[int] = DEADLINES_MS,
    probabilities: Sequence[float] = PROBABILITIES,
    lazy_intervals: Sequence[float] = LAZY_INTERVALS,
    total_requests: int = 1000,
    seed: int = 0,
    staleness_threshold: int = 2,
    strategy2: Optional[SelectionStrategy] = None,
    jobs: Optional[int] = 1,
    progress: bool = False,
    collect_metrics: bool = False,
    timeseries: Optional[float] = None,
) -> Figure4Result:
    """Run the full sweep, optionally fanned out over ``jobs`` processes.

    Every cell is an independent simulation seeded from ``seed`` alone,
    so the grid parallelizes freely; ``jobs=1`` preserves the historical
    serial loop bit for bit and the parallel path is pinned to it by
    tests.  The sweep-wide kwargs are declared once (``common=``); each
    spec carries only its grid coordinates.
    """
    common = dict(
        total_requests=total_requests,
        seed=seed,
        staleness_threshold=staleness_threshold,
        strategy2=strategy2,
        collect_metrics=collect_metrics,
        timeseries=timeseries,
    )
    specs = [
        CellSpec(
            key=(probability, lui, deadline_ms),
            fn=run_figure4_cell,
            kwargs=dict(
                deadline=deadline_ms / 1000.0,
                min_probability=probability,
                lazy_update_interval=lui,
            ),
        )
        for probability in probabilities
        for lui in lazy_intervals
        for deadline_ms in deadlines_ms
    ]
    cells = run_cells(
        specs, jobs=jobs, progress=progress, label="figure4", common=common
    )
    result = Figure4Result()
    for spec, cell in zip(specs, cells):
        result.cells[spec.key] = cell
    return result


def merged_telemetry(result: Figure4Result) -> tuple[dict, Optional[dict]]:
    """Fold every cell's telemetry into one (metrics, calibration) pair.

    Both merges are commutative, so the totals are identical whatever
    order (or worker process) produced the cells.
    """
    from repro.obs.calibration import CalibrationTracker
    from repro.obs.metrics import MetricsRegistry

    snapshots = [c.metrics for c in result.cells.values() if c.metrics is not None]
    payloads = [c.calibration for c in result.cells.values()]
    metrics = MetricsRegistry.merge(*snapshots) if snapshots else {}
    if any(p is not None for p in payloads):
        calibration = CalibrationTracker.merge(payloads).to_dict()
    else:
        calibration = None
    return metrics, calibration


def write_metrics_artifact(
    path: str, result: Figure4Result, meta: Optional[dict] = None
) -> None:
    """JSONL telemetry artifact: one meta line, one line per cell, one
    merged-totals line, and — when the sweep recorded time series — one
    merged-timeline line (the ``repro metrics``/``repro dash``/CI
    consumers parse this).  Cells share the simulated clock origin, so
    their tick grids align and the merged timeline is the same for any
    jobs value."""
    from repro.experiments.report import write_experiment_artifact
    from repro.obs.export import metrics_event
    from repro.obs.timeseries import Timeline

    meta = dict(meta or {})
    seed = meta.pop("seed", None)
    records = []
    for key in sorted(result.cells):
        cell = result.cells[key]
        if cell.metrics is None:
            continue
        records.append(
            metrics_event(
                cell.metrics,
                kind="cell",
                min_probability=key[0],
                lazy_update_interval=key[1],
                deadline_ms=key[2],
                calibration=cell.calibration,
            )
        )
    merged, calibration = merged_telemetry(result)
    records.append(
        metrics_event(merged, kind="merged", calibration=calibration)
    )
    timeline = Timeline.merge_payloads(c.timeline for c in result.cells.values())
    if timeline is not None:
        records.append(
            {"event": "timeline", "kind": "merged", "timeline": timeline.to_dict()}
        )
    write_experiment_artifact(path, "figure4", records, seed=seed, **meta)


def render(result: Figure4Result) -> str:
    blocks = []
    rows_a = []
    rows_b = []
    for probability, lui in result.configurations():
        for cell in result.series(probability, lui):
            label = (f"{probability:.1f}", f"{lui:g}", int(cell.deadline * 1000))
            rows_a.append(label + (cell.avg_replicas_selected,))
            rows_b.append(
                label
                + (
                    cell.timing_failure_probability,
                    f"[{cell.ci_low:.3f}, {cell.ci_high:.3f}]",
                    cell.timing_failures,
                    cell.reads,
                    "yes" if cell.meets_qos() else "NO",
                )
            )
    blocks.append(
        format_table(
            ["P_c", "LUI_s", "deadline_ms", "avg_replicas_selected"],
            rows_a,
            title="Figure 4(a) — average number of replicas selected (client 2)",
        )
    )
    blocks.append(
        format_table(
            ["P_c", "LUI_s", "deadline_ms", "P(timing failure)", "95% CI",
             "failures", "reads", "QoS met"],
            rows_b,
            title="Figure 4(b) — observed probability of timing failure (client 2)",
        )
    )
    for probability, lui in result.configurations():
        series = result.series(probability, lui)
        xs = [cell.deadline * 1000 for cell in series]
        blocks.append(
            format_series(
                f"selected(P_c={probability}, LUI={lui:g}s)",
                xs,
                [cell.avg_replicas_selected for cell in series],
            )
        )
        blocks.append(
            format_series(
                f"failure(P_c={probability}, LUI={lui:g}s)",
                xs,
                [cell.timing_failure_probability for cell in series],
            )
        )
    return "\n\n".join(blocks)


def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> None:
    parser = argparse.ArgumentParser(
        prog=prog, description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--quick", action="store_true", help="3 deadlines x 200 requests"
    )
    parser.add_argument("--save", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--metrics-out", metavar="PATH", help="write telemetry as JSONL"
    )
    add_jobs_argument(parser)
    args = parser.parse_args(argv)

    quick, metrics_out = args.quick, args.metrics_out
    result = run_figure4(
        deadlines_ms=(100, 160, 220) if quick else DEADLINES_MS,
        total_requests=200 if quick else 1000,
        jobs=args.jobs,
        progress=args.jobs != 1,
        collect_metrics=metrics_out is not None,
        timeseries=TIMELINE_INTERVAL if metrics_out is not None else None,
    )
    print(render(result))
    if metrics_out is not None:
        write_metrics_artifact(
            metrics_out, result, meta={"quick": quick, "seed": 0}
        )
        print(f"\ntelemetry written to {metrics_out}")
    if args.save:
        from repro.experiments.report import save_results

        save_results(
            args.save,
            [result.cells[key] for key in sorted(result.cells)],
            meta={"experiment": "figure4", "quick": quick},
        )
        print(f"\nsaved to {args.save}")


if __name__ == "__main__":
    main()
