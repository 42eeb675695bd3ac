"""Figure 4 bench: adaptivity of the probabilistic model (both panels).

Regenerates Figure 4(a) (average number of replicas selected) and 4(b)
(observed timing-failure probability with 95 % binomial CIs) for client 2
of the §6 experiment: deadline sweep 80–220 ms, P_c ∈ {0.9, 0.5},
LUI ∈ {2 s, 4 s}, 1000 alternating write/read requests per client per
cell, request delay 1000 ms.

The shape assertions encode the paper's observations: the selected-set
size falls as the deadline loosens, the observed failure probability stays
within 1 − P_c, and the longer LUI produces more timing failures.  The
figure, its shape and its pins come from seed 0.  The failure bound is a
claim about a probability, so each cell is held to it on its mean over the
equivalence gate's Figure 4 seeds (``benchmarks/equivalence.py``): one
seed's draw can land on either side of a cell that runs near its bound.

Run: ``pytest benchmarks/test_bench_figure4.py --benchmark-only``
(this is the heaviest bench: 32 simulated cells at seed 0 and 320 over the
gate's seeds, fanned out over every core).
"""

import pytest

from equivalence import DEFAULT_SEED, PANELS, figure4_rows
from repro.experiments.figure4 import (
    DEADLINES_MS,
    Figure4Result,
    render,
    run_figure4,
)

TOTAL_REQUESTS = 1000

#: The seeds the equivalence gate runs Figure 4's cells on.
QOS_SEEDS = range(DEFAULT_SEED, DEFAULT_SEED + dict(PANELS["full"])[figure4_rows])

_results: dict[tuple[float, float], Figure4Result] = {}


@pytest.mark.benchmark(group="figure4-adaptivity")
@pytest.mark.parametrize("min_probability", [0.9, 0.5])
@pytest.mark.parametrize("lui", [2.0, 4.0])
def test_figure4_configuration(benchmark, report, min_probability, lui):
    """One (P_c, LUI) configuration: the full deadline sweep."""

    def sweep():
        return run_figure4(
            deadlines_ms=DEADLINES_MS,
            probabilities=(min_probability,),
            lazy_intervals=(lui,),
            total_requests=TOTAL_REQUESTS,
        )

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _results[(min_probability, lui)] = result

    series = result.series(min_probability, lui)
    assert len(series) == len(DEADLINES_MS)
    # Figure 4(a): the selected-set size falls as the deadline loosens.
    assert result.selection_decreases_with_deadline(min_probability, lui)
    # Figure 4(b): the model keeps failures within the client's tolerance,
    # judged per cell on its mean P(fail) over QOS_SEEDS.
    sweeps = [
        run_figure4(
            deadlines_ms=DEADLINES_MS,
            probabilities=(min_probability,),
            lazy_intervals=(lui,),
            total_requests=TOTAL_REQUESTS,
            seed=seed,
            jobs=None,
        ).series(min_probability, lui)
        for seed in QOS_SEEDS
    ]
    bound = 1.0 - min_probability + 1e-9
    means = {
        deadline_ms: sum(s[i].timing_failure_probability for s in sweeps) / len(sweeps)
        for i, deadline_ms in enumerate(DEADLINES_MS)
    }
    report(
        f"mean failure(P_c={min_probability}, LUI={lui:g}s) over seeds "
        f"{QOS_SEEDS.start}..{QOS_SEEDS.stop - 1}: "
        + " ".join(f"({d}, {m:.4g})" for d, m in means.items())
    )
    assert all(mean <= bound for mean in means.values()), means


@pytest.mark.benchmark(group="figure4-adaptivity")
def test_figure4_report(benchmark, report, pin):
    """Merge the per-configuration sweeps and print both panels.

    Carries a (trivial) benchmark so ``--benchmark-only`` runs do not
    skip the report.
    """
    if not _results:
        pytest.skip("configuration benches did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    merged = Figure4Result()
    for result in _results.values():
        merged.cells.update(result.cells)
    report("")
    report(render(merged))
    for (prob, lui), result in sorted(_results.items()):
        failures = sum(c.timing_failures for c in result.series(prob, lui))
        pin(f"failures_pc{prob}_lui{lui:g}", failures)
    # Cross-configuration observation (§6.1): with the longer LUI the
    # replicas are staler, so (summed over the sweep) timing failures are
    # at least as frequent as with the shorter LUI.
    for prob in (0.9, 0.5):
        if (prob, 2.0) in _results and (prob, 4.0) in _results:
            short = sum(
                c.timing_failures for c in _results[(prob, 2.0)].series(prob, 2.0)
            )
            long = sum(
                c.timing_failures for c in _results[(prob, 4.0)].series(prob, 4.0)
            )
            assert long >= short
