"""Runner-speedup measurement: the quick Figure 4 sweep at several
``--jobs`` levels.

This is the regression harness for the parallel runner (DESIGN.md
§8): it times the same 12-cell quick sweep serially and parallel, and
reports one row per jobs level with cells-per-second and the speedup
over ``--jobs 1``.  The table always states how many CPUs the process
may actually use (:func:`repro.experiments.runner.available_cpus`),
because a speedup number without its core count is how the repo once
recorded a "0.94x parallel" result that was really two serial runs on a
one-core container racing each other.

CI runs ``repro speedup --check`` (the ``runner-speedup`` job): on a
multi-core runner it fails the build if ``--jobs 2`` stops beating
``--jobs 1`` by at least ``--min-speedup``; on a single-core box the
gate is reported as skipped — there is no parallelism to regress.

Run: ``python -m repro.experiments.speedup [--jobs-levels 1,2,4]
[--out PATH] [--check] [--min-speedup X]``  (or ``python -m repro
speedup ...``).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.report import format_table
from repro.experiments.runner import available_cpus, comma_ints

#: The quick Figure 4 grid (same shape the bench suite and CI use):
#: 3 deadlines x 2 P_c x 2 LUI = 12 independent cells.
QUICK_GRID = dict(
    deadlines_ms=(100, 160, 220),
    probabilities=(0.9, 0.5),
    lazy_intervals=(2.0, 4.0),
    total_requests=200,
    seed=0,
)


@dataclass(frozen=True)
class SpeedupRow:
    """One jobs level of the sweep-timing table."""

    jobs: int
    cells: int
    seconds: float
    cells_per_second: float
    speedup: float  # vs. the jobs=1 row of the same run


@dataclass(frozen=True)
class SpeedupReport:
    cores: int
    rows: tuple[SpeedupRow, ...]

    def row_for(self, jobs: int) -> Optional[SpeedupRow]:
        for row in self.rows:
            if row.jobs == jobs:
                return row
        return None


def measure_speedup(
    jobs_levels: Sequence[int] = (1, 2, 4),
    grid: Optional[dict] = None,
) -> SpeedupReport:
    """Time the quick sweep once per jobs level (jobs=1 first, as baseline).

    Each parallel number includes starting and stopping its process pool,
    which is what every ``--jobs N`` sweep pays.
    """
    from repro.experiments.figure4 import run_figure4

    grid = dict(QUICK_GRID if grid is None else grid)
    levels = sorted(set(jobs_levels))
    if 1 not in levels:
        levels = [1] + levels
    num_cells = (
        len(grid["deadlines_ms"])
        * len(grid["probabilities"])
        * len(grid["lazy_intervals"])
    )
    rows: list[SpeedupRow] = []
    serial_seconds: Optional[float] = None
    baseline = None
    for jobs in levels:
        start = time.perf_counter()
        result = run_figure4(jobs=jobs, **grid)
        seconds = time.perf_counter() - start
        if jobs == 1:
            serial_seconds = seconds
            baseline = result
        elif baseline is not None and result.cells != baseline.cells:
            raise AssertionError(
                f"jobs={jobs} produced different cells than jobs=1"
            )
        rows.append(
            SpeedupRow(
                jobs=jobs,
                cells=num_cells,
                seconds=seconds,
                cells_per_second=num_cells / seconds if seconds > 0 else 0.0,
                speedup=(serial_seconds / seconds)
                if serial_seconds and seconds > 0
                else 1.0,
            )
        )
    return SpeedupReport(cores=available_cpus(), rows=tuple(rows))


def render(report: SpeedupReport) -> str:
    table = format_table(
        ["jobs", "cells", "seconds", "cells/s", "speedup vs jobs=1"],
        [
            (row.jobs, row.cells, row.seconds,
             row.cells_per_second, f"{row.speedup:.2f}x")
            for row in report.rows
        ],
        title=(
            "Quick Figure 4 sweep — parallel runner throughput "
            f"({report.cores} usable core{'s' if report.cores != 1 else ''})"
        ),
    )
    if report.cores == 1:
        table += (
            "\nnote: single usable core — parallel rows measure runner "
            "overhead, not speedup"
        )
    return table


def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog=prog, description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--jobs-levels", type=comma_ints, default=[1, 2, 4], metavar="N,M,...",
        help="comma-separated jobs levels to time (default 1,2,4)",
    )
    parser.add_argument("--out", metavar="PATH", help="write the timing table")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if parallel speedup regresses (multi-core only)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.2, metavar="X",
        help="required speedup for the gated jobs level (default 1.2)",
    )
    parser.add_argument(
        "--check-jobs", type=int, default=2, metavar="N",
        help="jobs level the gate applies to (default 2)",
    )
    args = parser.parse_args(argv)
    out, min_speedup, check_jobs = args.out, args.min_speedup, args.check_jobs

    report = measure_speedup(jobs_levels=args.jobs_levels)
    text = render(report)
    print(text)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"\ntiming table written to {out}")

    if args.check:
        if report.cores < 2:
            print(
                f"\ncheck skipped: {report.cores} usable core(s); "
                "the speedup gate needs at least 2"
            )
            return 0
        row = report.row_for(check_jobs)
        if row is None:
            print(f"\ncheck failed: no --jobs {check_jobs} row measured")
            return 1
        if row.speedup < min_speedup:
            print(
                f"\ncheck FAILED: --jobs {check_jobs} speedup {row.speedup:.2f}x "
                f"< required {min_speedup:.2f}x on {report.cores} cores"
            )
            return 1
        print(
            f"\ncheck passed: --jobs {check_jobs} speedup {row.speedup:.2f}x "
            f">= {min_speedup:.2f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
