"""Smoke tests for the ablation studies (small request counts)."""

import pytest

from repro.experiments.ablations import (
    baseline_comparison,
    baseline_strategies,
    failover_study,
    lui_sweep,
    staleness_sweep,
    window_sweep,
)


def test_lui_sweep_rows_and_trend():
    rows = lui_sweep(luis=(0.5, 8.0), total_requests=60, deadline=0.160)
    assert [r.label for r in rows] == ["LUI=0.5s", "LUI=8s"]
    # A much longer LUI leaves secondaries staler: more replicas selected
    # or more deferrals (weak-form check to stay robust at small n).
    assert (
        rows[1].avg_replicas_selected >= rows[0].avg_replicas_selected
        or rows[1].deferred_fraction >= rows[0].deferred_fraction
    )


def test_staleness_sweep_relaxing_threshold_never_hurts():
    rows = staleness_sweep(thresholds=(0, 16), total_requests=60)
    assert rows[0].avg_replicas_selected >= rows[1].avg_replicas_selected - 0.5


def test_window_sweep_runs():
    rows = window_sweep(windows=(5, 20), total_requests=40)
    assert len(rows) == 2
    assert all(r.mean_response_time_ms > 0 for r in rows)


def test_baseline_comparison_includes_all_strategies():
    rows = baseline_comparison(total_requests=40)
    labels = {r.label for r in rows}
    assert labels == set(baseline_strategies())
    by_label = {r.label: r for r in rows}
    assert by_label["all-replicas"].avg_replicas_selected == pytest.approx(10.0)
    assert by_label["random-single"].avg_replicas_selected == pytest.approx(1.0)
    # Algorithm 1 uses far fewer replicas than all-replicas.
    assert by_label["algorithm-1"].avg_replicas_selected < 8.0


@pytest.mark.parametrize("crash", ["sequencer", "publisher", "secondary"])
def test_failover_study_converges(crash):
    result = failover_study(crash, total_requests=60, crash_after=10.0)
    assert result.updates_converged
    assert result.reads == 30
    assert result.final_sequencer is not None


def test_failover_study_rejects_unknown_target():
    with pytest.raises(ValueError):
        failover_study("nonsense", total_requests=10)


@pytest.mark.slow
def test_deferral_model_study_direction():
    from repro.experiments.ablations import deferral_model_study

    rows = deferral_model_study(reads_per_client=15)
    paper, aware = rows
    assert aware.timing_failure_probability <= paper.timing_failure_probability
    assert aware.avg_replicas_selected >= paper.avg_replicas_selected


@pytest.mark.slow
def test_overload_study_routes_around_slow_replica():
    from repro.experiments.ablations import overload_study

    result = overload_study(phase_length=25.0)
    assert result.share_during < result.share_before
    assert result.share_after > result.share_during
    assert result.failure_rate_during <= 0.15


@pytest.mark.slow
def test_adaptive_lui_study_beats_static():
    from repro.experiments.ablations import adaptive_lui_study

    rows = adaptive_lui_study(phase_length=30.0)
    assert all(
        r.label.startswith(p)
        for r, p in zip(rows, ("static", "static", "adaptive"), strict=True)
    )
    adaptive = rows[2]
    assert adaptive.staleness_target_hit_fraction >= 0.85
    assert adaptive.staleness_target_hit_fraction >= max(
        rows[0].staleness_target_hit_fraction,
        rows[1].staleness_target_hit_fraction,
    )
