"""``repro bench-diff``: gate bench results against committed baselines.

The bench suite writes one flat ``{metric: value}`` JSON per module
(``benchmarks/BENCH_<name>.json``, see ``benchmarks/conftest.py``); the
blessed copies live in ``benchmarks/baselines/``.  This command compares
the two sets and fails when any metric regressed by more than the allowed
fraction, which turns the CI perf-trajectory upload into an actual gate.

Which direction is a regression is inferred from the metric name: times,
latencies, and per-op costs (``*_s``, ``*_us``, ``*_seconds``,
``*_per_event_s``, ...) regress **upward**; rates and speedups
(``*_per_s``, ``*_rate``, ``*_speedup``, ``*_hit_rate``, ...) regress
**downward**; anything unrecognized is reported but never gates.

``--update`` refreshes the baselines from the current results (run it
locally after an intentional perf change and commit the diff).

Run: ``repro bench-diff`` after ``pytest benchmarks -m benchmark``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional

from repro.experiments.report import format_table

#: Metric-name suffixes whose value regresses when it goes UP (costs).
LOWER_IS_BETTER = (
    "_s", "_us", "_ms", "_ns", "_seconds", "_bytes", "_overhead",
    "_per_event",
)
#: Metric-name suffixes whose value regresses when it goes DOWN (throughput).
HIGHER_IS_BETTER = (
    "_per_s", "_per_sec", "_per_second", "_rate", "_speedup", "_ratio",
    "_ops",
)


def metric_direction(name: str) -> Optional[str]:
    """``"lower"`` / ``"higher"`` = which value is better, None = unknown.

    Throughput suffixes are checked first: ``events_per_s`` ends with both
    ``_per_s`` and ``_s``, and it is a rate.
    """
    for suffix in HIGHER_IS_BETTER:
        if name.endswith(suffix):
            return "higher"
    for suffix in LOWER_IS_BETTER:
        if name.endswith(suffix):
            return "lower"
    return None


def load_bench_files(directory: Path) -> Dict[str, Dict[str, float]]:
    """``{module: {metric: value}}`` from every BENCH_*.json in a directory."""
    out: Dict[str, Dict[str, float]] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        name = path.stem.removeprefix("BENCH_")
        out[name] = {
            str(k): float(v) for k, v in json.loads(path.read_text()).items()
        }
    return out


def diff_benches(
    current: Dict[str, Dict[str, float]],
    baseline: Dict[str, Dict[str, float]],
    max_regression: float,
) -> tuple[list[list], list[str]]:
    """(table rows, regression messages) comparing current to baseline.

    A metric gates only when it exists on both sides and has a known
    direction; new or retired metrics are informational.
    """
    rows: list[list] = []
    regressions: list[str] = []
    modules = sorted(set(current) | set(baseline))
    for module in modules:
        cur = current.get(module, {})
        base = baseline.get(module, {})
        for metric in sorted(set(cur) | set(base)):
            have = cur.get(metric)
            want = base.get(metric)
            if have is None:
                rows.append([module, metric, f"{want:.6g}", "-", "-", "retired"])
                continue
            if want is None:
                rows.append([module, metric, "-", f"{have:.6g}", "-", "new"])
                continue
            if want == 0:
                change = 0.0 if have == 0 else float("inf")
            else:
                change = have / want - 1.0
            direction = metric_direction(metric)
            verdict = "ok"
            if direction == "lower" and change > max_regression:
                verdict = "REGRESSION"
            elif direction == "higher" and -change > max_regression:
                verdict = "REGRESSION"
            elif direction is None:
                verdict = "untracked"
            rows.append(
                [
                    module,
                    metric,
                    f"{want:.6g}",
                    f"{have:.6g}",
                    f"{change:+.1%}",
                    verdict,
                ]
            )
            if verdict == "REGRESSION":
                regressions.append(
                    f"{module}.{metric}: {want:.6g} -> {have:.6g} "
                    f"({change:+.1%}, allowed {max_regression:.0%} "
                    f"{'up' if direction == 'lower' else 'down'})"
                )
    return rows, regressions


def update_baselines(
    current: Dict[str, Dict[str, float]], directory: Path
) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for module, metrics in sorted(current.items()):
        path = directory / f"BENCH_{module}.json"
        path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> int:
    repo_root = Path(__file__).resolve().parents[3]
    parser = argparse.ArgumentParser(
        prog=prog, description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--current",
        type=Path,
        default=repo_root / "benchmarks",
        help="directory holding the fresh BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=repo_root / "benchmarks" / "baselines",
        help="directory holding the committed baselines",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.2,
        metavar="FRACTION",
        help="allowed fractional regression before failing (default 0.2)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="refresh the baselines from the current results and exit",
    )
    args = parser.parse_args(argv)

    current = load_bench_files(args.current)
    if not current:
        print(
            f"no BENCH_*.json files in {args.current} — "
            f"run the bench suite first",
            file=sys.stderr,
        )
        return 1

    if args.update:
        for path in update_baselines(current, args.baseline):
            print(f"baseline updated: {path}")
        return 0

    baseline = load_bench_files(args.baseline)
    if not baseline:
        print(
            f"no baselines in {args.baseline} — seed them with --update",
            file=sys.stderr,
        )
        return 1

    rows, regressions = diff_benches(
        current, baseline, args.max_regression
    )
    print(
        format_table(
            ["module", "metric", "baseline", "current", "change", "verdict"],
            rows,
            title=(
                f"bench trajectory vs. baselines "
                f"(gate: {args.max_regression:.0%})"
            ),
        )
    )
    if regressions:
        print()
        for line in regressions:
            print(f"REGRESSION {line}", file=sys.stderr)
        return 1
    print("\nno regressions past the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
