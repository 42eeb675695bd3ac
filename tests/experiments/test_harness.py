"""Tests for the experiment harness (scaled-down runs)."""

import json

import pytest

from repro.baselines.strategies import AllReplicasSelection
from repro.experiments.figure3 import Figure3Result, render as render_fig3, run_figure3
from repro.experiments.figure4 import render as render_fig4, run_figure4
from repro.experiments.harness import (
    SelectionOverheadResult,
    measure_selection_overhead,
    run_figure4_cell,
)
from repro.experiments.report import format_series, format_table


# ---------------------------------------------------------------------------
# Report formatting
# ---------------------------------------------------------------------------
def test_format_table_aligns_columns():
    text = format_table(["a", "long-header"], [[1, 2.5], ["xx", 3]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "long-header" in lines[1]
    assert len(lines) == 5


def test_format_series():
    text = format_series("s", [1, 2], [0.5, 0.25])
    assert text.startswith("s:")
    assert "(1, 0.5)" in text


def test_save_and_load_results_round_trip(tmp_path):
    from repro.experiments.report import save_results

    cell = run_figure4_cell(
        deadline=0.3, min_probability=0.5, lazy_update_interval=2.0,
        total_requests=8, request_delay=0.1,
    )
    path = save_results(
        tmp_path / "fig4.json", [cell], meta={"seed": 0, "requests": 8}
    )
    document = json.loads(path.read_text())
    assert document["meta"]["seed"] == 0
    row = document["results"][0]
    assert row["__dataclass__"] == "Figure4Cell"
    assert row["deadline"] == 0.3
    assert row["reads"] == 4


def test_save_results_handles_nested_structures(tmp_path):
    from repro.experiments.report import save_results

    payload = {"series": [(1, 0.5), (2, 0.25)], "labels": {"a": [1, 2]}}
    path = save_results(tmp_path / "x.json", payload)
    assert json.loads(path.read_text())["results"] == {
        "series": [[1, 0.5], [2, 0.25]],
        "labels": {"a": [1, 2]},
    }


# ---------------------------------------------------------------------------
# Figure 3 harness
# ---------------------------------------------------------------------------
def test_overhead_measurement_fields():
    result = measure_selection_overhead(num_replicas=4, window_size=10, repetitions=20)
    assert result.total_us > 0
    assert result.total_us == pytest.approx(
        result.distribution_us + result.selection_us
    )
    assert result.repetitions == 20
    assert result.median_total_us > 0
    assert 0.0 <= result.distribution_share <= 1.0


def test_overhead_distribution_dominates():
    """§6: computing the distributions is ~90 % of the overhead."""
    result = measure_selection_overhead(num_replicas=8, window_size=20, repetitions=50)
    assert result.distribution_share > 0.7


def test_overhead_grows_with_replica_count():
    small = measure_selection_overhead(2, 20, repetitions=60)
    large = measure_selection_overhead(10, 20, repetitions=60)
    assert large.total_us > small.total_us


def test_overhead_validation():
    with pytest.raises(ValueError):
        measure_selection_overhead(0, 10)


def test_figure3_shape_checks():
    """Tier-1 asserts what is deterministic about the sweep.  Whether the
    *measured* costs have Figure 3's shape is a wall-clock question (the
    window term is a few µs of a ~90 µs evaluation) and is asserted where
    timings are repeated: benchmarks/test_bench_figure3.py."""
    counts, windows = (2, 6, 10), (10, 20)
    result = run_figure3(repetitions=40, replica_counts=counts, window_sizes=windows)
    assert set(result.points) == {(w, n) for w in windows for n in counts}
    for (window, n), point in result.points.items():
        assert (point.window_size, point.num_replicas) == (window, n)
        assert point.total_us > 0
        assert point.repetitions == 40
    text = render_fig3(result)
    assert "Figure 3" in text and "dist_share" in text

    # The shape predicates themselves, on costs we choose.
    def shaped(cost):
        return Figure3Result(
            {
                (w, n): SelectionOverheadResult(
                    n, w, cost(w, n), 0.0, 0.0, 1, median_total_us=cost(w, n)
                )
                for w in windows
                for n in counts
            }
        )

    rising = shaped(lambda w, n: w + 10.0 * n)
    assert rising.is_monotone_in_replicas(10) and rising.window20_above_window10()
    falling = shaped(lambda w, n: 2000.0 / w - 5.0 * n)
    assert not falling.is_monotone_in_replicas(10)
    assert not falling.window20_above_window10()


# ---------------------------------------------------------------------------
# Figure 4 harness (scaled down)
# ---------------------------------------------------------------------------
def test_figure4_cell_metrics():
    cell = run_figure4_cell(
        deadline=0.200,
        min_probability=0.5,
        lazy_update_interval=2.0,
        total_requests=40,
        request_delay=0.2,
    )
    assert cell.reads == 20
    assert 0.0 <= cell.timing_failure_probability <= 1.0
    assert cell.ci_low <= cell.timing_failure_probability <= cell.ci_high
    assert cell.avg_replicas_selected >= 1.0
    assert cell.mean_response_time > 0.0


def test_figure4_cell_with_baseline_strategy():
    cell = run_figure4_cell(
        deadline=0.200,
        min_probability=0.5,
        lazy_update_interval=2.0,
        total_requests=20,
        request_delay=0.2,
        strategy2=AllReplicasSelection(),
    )
    assert cell.avg_replicas_selected == pytest.approx(10.0)


def test_figure4_sweep_and_render():
    result = run_figure4(
        deadlines_ms=(120, 220),
        probabilities=(0.9,),
        lazy_intervals=(2.0,),
        total_requests=60,
    )
    assert len(result.cells) == 2
    series = result.series(0.9, 2.0)
    assert [int(c.deadline * 1000) for c in series] == [120, 220]
    text = render_fig4(result)
    assert "Figure 4(a)" in text and "Figure 4(b)" in text


def test_figure4_meets_qos_flag():
    # Small run: P_c=0.5 leaves enough slack that even the bootstrap
    # phase's deferred reads cannot push failures past 1 - P_c.  The
    # strict P_c=0.9 check over full 1000-request runs lives in the
    # integration suite and the Figure 4 bench.
    cell = run_figure4_cell(
        deadline=0.400,
        min_probability=0.5,
        lazy_update_interval=2.0,
        total_requests=30,
        request_delay=0.2,
    )
    assert cell.meets_qos()
