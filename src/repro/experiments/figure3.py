"""Figure 3: overhead of the probabilistic selection algorithm.

The paper measures the per-read cost of computing the response-time
distributions and running Algorithm 1 as the number of available replicas
grows from 2 to 10, for sliding windows of sizes 10 and 20; it reports
≈400–1300 µs on 2002 hardware, growing with replica count, higher for the
larger window, with 90 % of the time in distribution computation.

We time our implementation the same way (wall clock around the exact code
the client gateway runs per read).  Absolute numbers differ — different
language and two decades of hardware — but the reproduction targets are
the *shape*: monotone growth with replica count, the window-20 curve above
window-10, and distribution computation dominating.

Run: ``python -m repro.experiments.figure3``
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.harness import SelectionOverheadResult, measure_selection_overhead
from repro.experiments.report import format_table

REPLICA_COUNTS = (2, 3, 4, 5, 6, 7, 8, 9, 10)
WINDOW_SIZES = (10, 20)


def _rank_correlation(values: list[float]) -> float:
    """Spearman rank correlation of ``values`` against their index."""
    n = len(values)
    if n < 2:
        return 1.0
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0] * n
    for rank, index in enumerate(order):
        ranks[index] = rank
    d2 = sum((ranks[i] - i) ** 2 for i in range(n))
    return 1.0 - (6.0 * d2) / (n * (n * n - 1))


@dataclass
class Figure3Result:
    """All the points of Figure 3, keyed by (window, replicas)."""

    points: dict[tuple[int, int], SelectionOverheadResult] = field(default_factory=dict)

    def series(self, window_size: int) -> list[SelectionOverheadResult]:
        return [
            self.points[(window_size, n)]
            for n in REPLICA_COUNTS
            if (window_size, n) in self.points
        ]

    def is_monotone_in_replicas(
        self, window_size: int, min_rank_correlation: float = 0.7
    ) -> bool:
        """Overhead should grow with replica count.

        Wall-clock timings are noisy — a single CPU-scheduling spike can
        make one point jump 50 % — so this is a *trend* check on each
        point's median repetition, robust to preempted repetitions and to
        individual outliers: the endpoints must rise clearly and the
        Spearman rank correlation between replica count and cost must be
        strongly positive.
        """
        series = self.series(window_size)
        if len(series) < 3:
            return True
        endpoints_rise = (
            series[-1].median_total_us > 1.3 * series[0].median_total_us
        )
        return endpoints_rise and (
            _rank_correlation([p.median_total_us for p in series])
            >= min_rank_correlation
        )

    def window20_above_window10(self, tolerance: float = 0.1) -> bool:
        """The larger window costs more — compared across the whole sweep
        (sum of the median repetitions over replica counts) so one noisy
        point cannot flip it."""
        total_10 = sum(p.median_total_us for p in self.series(10))
        total_20 = sum(p.median_total_us for p in self.series(20))
        if total_10 == 0 or total_20 == 0:
            return True
        return total_20 >= total_10 * (1.0 - tolerance)


def run_figure3(
    repetitions: int = 300,
    seed: int = 0,
    replica_counts: tuple[int, ...] = REPLICA_COUNTS,
    window_sizes: tuple[int, ...] = WINDOW_SIZES,
) -> Figure3Result:
    """The Figure 3 sweep."""
    result = Figure3Result()
    for window in window_sizes:
        for n in replica_counts:
            result.points[(window, n)] = measure_selection_overhead(
                num_replicas=n,
                window_size=window,
                repetitions=repetitions,
                seed=seed,
            )
    return result


def render(result: Figure3Result) -> str:
    rows = [
        (
            n,
            window,
            point.total_us,
            point.distribution_us,
            point.selection_us,
            f"{100 * point.distribution_share:.0f}%",
        )
        for (window, n), point in sorted(result.points.items())
    ]
    return format_table(
        ["replicas", "window", "total_us", "distribution_us", "selection_us", "dist_share"],
        rows,
        title="Figure 3 — selection algorithm overhead (microseconds per read)",
    )


def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> None:
    parser = argparse.ArgumentParser(
        prog=prog, description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--save", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--metrics-out", metavar="PATH", help="write telemetry as JSONL"
    )
    args = parser.parse_args(argv)

    result = run_figure3()
    print(render(result))
    if args.save:
        from repro.experiments.report import save_results

        save_results(
            args.save,
            sorted(result.points.values(), key=lambda p: (p.window_size, p.num_replicas)),
            meta={"experiment": "figure3"},
        )
        print(f"\nsaved to {args.save}")
    if args.metrics_out:
        write_metrics_artifact(args.metrics_out, result)
        print(f"\ntelemetry written to {args.metrics_out}")


def write_metrics_artifact(path: str, result: Figure3Result) -> None:
    """JSONL telemetry: the unified meta line (wall-clock numbers need its
    ``usable_cores``), then one record of per-read cost per point."""
    from repro.experiments.report import write_experiment_artifact

    records = [
        {
            "event": "point",
            "window": window,
            "replicas": n,
            "total_us": point.total_us,
            "distribution_us": point.distribution_us,
            "selection_us": point.selection_us,
        }
        for (window, n), point in sorted(result.points.items())
    ]
    write_experiment_artifact(path, "figure3", records)


if __name__ == "__main__":
    main()
