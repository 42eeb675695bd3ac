"""Ablation benches (A1–A9 in DESIGN.md).

The "other extensive experiments" the paper's conclusion mentions, plus
baseline-strategy, failure-injection, and extension studies.  Each bench
runs the reduced-scale §6 testbed, prints its table, and asserts the
expected trend.

Run: ``pytest benchmarks/test_bench_ablations.py --benchmark-only``
(filter with ``-k lui`` / ``-k request_delay`` / ``-k window`` /
``-k staleness`` / ``-k baseline`` / ``-k failover`` /
``-k adaptive_lui`` / ``-k overload`` / ``-k deferral``).
"""

import pytest

from repro.experiments.ablations import (
    _render_rows,
    adaptive_lui_study,
    baseline_comparison,
    deferral_model_study,
    failover_study,
    lui_sweep,
    overload_study,
    request_delay_sweep,
    staleness_sweep,
    window_sweep,
)
from repro.experiments.report import format_table

REQUESTS = 400


@pytest.mark.benchmark(group="ablations")
def test_ablation_lui(benchmark, report, pin):
    """A1: longer lazy update interval ⇒ staler secondaries."""
    rows = benchmark.pedantic(
        lui_sweep, kwargs=dict(total_requests=REQUESTS), rounds=1
    )
    report("")
    report(_render_rows("A1 — lazy update interval", rows))
    pin("lui_shortest_avg_selected", rows[0].avg_replicas_selected)
    pin("lui_longest_avg_selected", rows[-1].avg_replicas_selected)
    pin("lui_longest_deferred_fraction", rows[-1].deferred_fraction)
    # More replicas selected (or more deferrals) as the LUI grows 1s -> 8s.
    assert (
        rows[-1].avg_replicas_selected >= rows[0].avg_replicas_selected
        or rows[-1].deferred_fraction >= rows[0].deferred_fraction
    )


@pytest.mark.benchmark(group="ablations")
def test_ablation_request_delay(benchmark, report):
    """A2: shorter request delay ⇒ higher update rate ⇒ staler reads."""
    rows = benchmark.pedantic(
        request_delay_sweep, kwargs=dict(total_requests=REQUESTS), rounds=1
    )
    report("")
    report(_render_rows("A2 — request delay", rows))
    # The fastest client needs at least as many replicas as the slowest.
    assert rows[0].avg_replicas_selected >= rows[-1].avg_replicas_selected - 0.5


@pytest.mark.benchmark(group="ablations")
def test_ablation_window(benchmark, report):
    """A3: sliding-window size (the paper chose 20)."""
    rows = benchmark.pedantic(
        window_sweep, kwargs=dict(total_requests=REQUESTS), rounds=1
    )
    report("")
    report(_render_rows("A3 — sliding window size", rows))
    assert all(r.mean_response_time_ms > 0 for r in rows)


@pytest.mark.benchmark(group="ablations")
def test_ablation_staleness(benchmark, report):
    """A4: relaxing the staleness threshold frees more replicas (§6.1)."""
    rows = benchmark.pedantic(
        staleness_sweep, kwargs=dict(total_requests=REQUESTS), rounds=1
    )
    report("")
    report(_render_rows("A4 — staleness threshold", rows))
    # a=0 (strictest) needs at least as many replicas as a=16 (loosest),
    # and at least as many deferred reads.
    assert rows[0].avg_replicas_selected >= rows[-1].avg_replicas_selected
    assert rows[0].deferred_fraction >= rows[-1].deferred_fraction


@pytest.mark.benchmark(group="ablations")
def test_ablation_baselines(benchmark, report):
    """A5: Algorithm 1 vs. the naive strategies (§5's motivation)."""
    rows = benchmark.pedantic(
        baseline_comparison, kwargs=dict(total_requests=REQUESTS), rounds=1
    )
    report("")
    report(_render_rows("A5 — selection strategies", rows))
    by_label = {r.label: r for r in rows}
    algo = by_label["algorithm-1"]
    alls = by_label["all-replicas"]
    single = by_label["random-single"]
    # Algorithm 1 approaches the all-replicas failure rate with a fraction
    # of the replicas...
    assert algo.avg_replicas_selected < 0.7 * alls.avg_replicas_selected
    assert algo.timing_failure_probability <= alls.timing_failure_probability + 0.05
    # ...and beats blind single-replica selection on timing failures.
    assert algo.timing_failure_probability <= single.timing_failure_probability


@pytest.mark.benchmark(group="ablations")
def test_ablation_adaptive_lui(benchmark, report):
    """A7: closed-loop T_L tuning vs. static intervals under a two-phase
    update load (quiet then storm)."""
    rows = benchmark.pedantic(
        adaptive_lui_study, kwargs=dict(phase_length=60.0), rounds=1
    )
    report("")
    report(format_table(
        ["config", "lazy_msgs", "target_hit_fraction", "final_T_L"],
        [(r.label, r.lazy_updates_sent, r.staleness_target_hit_fraction,
          r.final_interval) for r in rows],
        title="A7 — adaptive lazy update interval",
    ))
    static_best = max(rows[0].staleness_target_hit_fraction,
                      rows[1].staleness_target_hit_fraction)
    adaptive = rows[2]
    # The controller must hold the staleness target where the static
    # intervals cannot (the storm phase blows the slow one, the quiet
    # phase wastes the fast one's messages without helping the storm).
    assert adaptive.staleness_target_hit_fraction >= 0.9
    assert adaptive.staleness_target_hit_fraction > static_best
    assert adaptive.final_interval < 1.0  # tightened for the storm


@pytest.mark.benchmark(group="ablations")
def test_ablation_overload(benchmark, report):
    """A8: a transiently overloaded replica (§1's motivation) must lose
    read duty while it is slow and regain it after, without a failure
    spike."""
    result = benchmark.pedantic(overload_study, rounds=1)
    report("")
    report(format_table(
        ["victim", "share_before", "share_during", "share_after",
         "P(fail) during"],
        [(result.victim, result.share_before, result.share_during,
          result.share_after, result.failure_rate_during)],
        title="A8 — transient overload adaptivity",
    ))
    assert result.share_during < result.share_before / 2
    assert result.share_after > result.share_during
    assert result.failure_rate_during <= 0.1


@pytest.mark.benchmark(group="ablations")
def test_ablation_deferral_model(benchmark, report):
    """A9: outside the paper's regime, Eq. 3's independent deferred term
    is over-confident (correlated deferrals); the correlation-aware
    variant restores the QoS guarantee.  DESIGN.md §5a."""
    rows = benchmark.pedantic(deferral_model_study, rounds=1)
    report("")
    report(_render_rows(
        "A9 — deferred-read correlation (out-of-regime)", rows
    ))
    paper, aware = rows
    assert aware.timing_failure_probability < paper.timing_failure_probability
    assert aware.meets_qos
    assert aware.avg_replicas_selected > paper.avg_replicas_selected


@pytest.mark.benchmark(group="ablations")
@pytest.mark.parametrize("crash", ["sequencer", "publisher", "secondary"])
def test_ablation_failover(benchmark, report, crash):
    """A6: crash a role mid-run; the service must adapt and converge."""
    result = benchmark.pedantic(
        failover_study,
        args=(crash,),
        kwargs=dict(total_requests=300),
        rounds=1,
    )
    report("")
    report(
        format_table(
            ["crash", "P(fail)", "reads", "sequencer_after", "publisher_after", "converged"],
            [(
                result.label,
                result.timing_failure_probability,
                result.reads,
                result.final_sequencer,
                result.final_publisher,
                "yes" if result.updates_converged else "NO",
            )],
            title=f"A6 — failure injection ({crash})",
        )
    )
    assert result.updates_converged
    assert result.reads == 150
    # Liveness after the crash: failures bounded well below 50 %.
    assert result.timing_failure_probability < 0.5
