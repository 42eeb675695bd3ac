"""The bench-trajectory gate: direction inference, diffing, baselines."""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.benchdiff import (
    diff_benches,
    load_bench_files,
    main,
    metric_direction,
    update_baselines,
)


def test_metric_direction_suffixes():
    assert metric_direction("selection_total_us") == "lower"
    assert metric_direction("kernel_ns_per_event") == "lower"
    assert metric_direction("fire_events_per_second") == "higher"
    assert metric_direction("cache_steady_speedup") == "higher"
    assert metric_direction("usable_cores") is None
    assert metric_direction("jobs2_cells_per_s") == "higher"


def test_committed_runner_throughput_rows_are_gated():
    """Every per-jobs-level row of the committed Figure 4 baseline carries
    a suffix the gate knows, so a runner slowdown is a REGRESSION rather
    than ``untracked``."""
    baselines = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
    rows = [k for k in load_bench_files(baselines)["figure4"] if "cells_per_s" in k]
    assert rows
    assert [metric_direction(k) for k in rows] == ["higher"] * len(rows)


def _write(directory: Path, module: str, values: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"BENCH_{module}.json").write_text(json.dumps(values))


def test_diff_flags_regressions_by_direction(tmp_path):
    baseline = tmp_path / "baselines"
    current = tmp_path / "current"
    _write(baseline, "x", {"op_us": 100.0, "ops_per_s": 100.0, "cores": 4})
    _write(
        current,
        "x",
        {"op_us": 150.0, "ops_per_s": 70.0, "cores": 8, "new_us": 1.0},
    )
    rows, regressions = diff_benches(
        load_bench_files(current), load_bench_files(baseline), 0.2
    )
    verdicts = {(r[0], r[1]): r[5] for r in rows}
    assert verdicts[("x", "op_us")] == "REGRESSION"  # +50% latency
    assert verdicts[("x", "ops_per_s")] == "REGRESSION"  # -30% throughput
    assert verdicts[("x", "cores")] == "untracked"  # unknown direction
    assert verdicts[("x", "new_us")] == "new"
    assert len(regressions) == 2


def test_diff_within_gate_is_ok(tmp_path):
    baseline = tmp_path / "baselines"
    current = tmp_path / "current"
    _write(baseline, "x", {"op_us": 100.0, "gone_us": 5.0})
    _write(current, "x", {"op_us": 110.0})
    rows, regressions = diff_benches(
        load_bench_files(current), load_bench_files(baseline), 0.2
    )
    verdicts = {(r[0], r[1]): r[5] for r in rows}
    assert verdicts[("x", "op_us")] == "ok"
    assert verdicts[("x", "gone_us")] == "retired"
    assert regressions == []


def test_update_baselines_round_trips(tmp_path):
    current = tmp_path / "current"
    baseline = tmp_path / "baselines"
    _write(current, "x", {"op_us": 42.0})
    written = update_baselines(load_bench_files(current), baseline)
    assert [p.name for p in written] == ["BENCH_x.json"]
    assert load_bench_files(baseline) == load_bench_files(current)


def test_main_exit_codes(tmp_path, capsys):
    current = tmp_path / "current"
    baseline = tmp_path / "baselines"
    # No current results at all.
    assert main(["--current", str(current)]) == 1
    _write(current, "x", {"op_us": 100.0})
    # No baselines yet.
    assert (
        main(["--current", str(current), "--baseline", str(baseline)]) == 1
    )
    # Seed, then a clean diff.
    assert (
        main(
            [
                "--current",
                str(current),
                "--baseline",
                str(baseline),
                "--update",
            ]
        )
        == 0
    )
    assert (
        main(["--current", str(current), "--baseline", str(baseline)]) == 0
    )
    # A regression past the gate fails.
    _write(current, "x", {"op_us": 200.0})
    assert (
        main(["--current", str(current), "--baseline", str(baseline)]) == 1
    )
    capsys.readouterr()
