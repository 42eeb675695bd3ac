"""Figure 3 bench: overhead of the probabilistic selection algorithm.

Regenerates the paper's Figure 3: per-read prediction + selection cost
versus the number of available replicas (2–10) for sliding windows of
sizes 10 and 20.  ``test_figure3_table`` prints the full table and
verifies the reproduction's shape claims.  The figure is a host timing, so
its absolute µs are printed and tracked nowhere: the perf ledger reports
the same code path on real traffic as ``core.select_us_per_read``.

Run: ``pytest benchmarks/test_bench_figure3.py --benchmark-only``
"""

from repro.experiments.figure3 import render, run_figure3


def test_figure3_table(benchmark, report):
    """The whole Figure 3 sweep, printed, with shape assertions."""
    result = benchmark.pedantic(run_figure3, kwargs=dict(repetitions=200), rounds=1)
    report("")
    report(render(result))
    # Reproduction targets (shape, not absolute numbers — see DESIGN.md):
    assert result.is_monotone_in_replicas(10)
    assert result.is_monotone_in_replicas(20)
    assert result.window20_above_window10()
    # §6: distribution computation dominates the overhead (paper: ~90 %).
    assert all(p.distribution_share > 0.7 for p in result.points.values())
