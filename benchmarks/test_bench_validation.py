"""Model-validation benches (extends §6.1's "Validation of Probabilistic
Model").

* staleness-model calibration: Eq. 4 against simulator ground truth under
  Poisson and bursty update arrivals, plus the rate-mixture alternative;
* hot-spot avoidance: Algorithm 1's decreasing-``ert`` visiting order vs.
  the cdf-greedy variant.

Run: ``pytest benchmarks/test_bench_validation.py --benchmark-only``
"""

import pytest

from repro.core.staleness import RateMixtureStalenessModel
from repro.experiments.report import format_table
from repro.experiments.validation import (
    render_staleness,
    run_hotspot_validation,
    run_staleness_validation,
)


@pytest.mark.benchmark(group="validation")
def test_staleness_calibration_poisson(benchmark, report, pin):
    rows = benchmark.pedantic(
        run_staleness_validation, kwargs=dict(duration=240.0), rounds=1
    )
    report("")
    report(render_staleness(
        "Staleness calibration — Poisson arrivals, Eq. 4", rows
    ))
    pin("staleness_poisson_max_abs_error", max(abs(row.error) for row in rows))
    # Eq. 4 should be well calibrated when its assumption holds.
    assert all(abs(row.error) < 0.1 for row in rows)


@pytest.mark.benchmark(group="validation")
def test_staleness_calibration_bursty(benchmark, report, pin):
    def both():
        poisson = run_staleness_validation(duration=240.0, bursty=True)
        mixture = run_staleness_validation(
            duration=240.0, bursty=True,
            staleness_model=RateMixtureStalenessModel(),
        )
        return poisson, mixture

    poisson, mixture = benchmark.pedantic(both, rounds=1)
    report("")
    report(render_staleness(
        "Staleness calibration — bursty arrivals, Eq. 4 (miscalibrated)",
        poisson,
    ))
    report("")
    report(render_staleness(
        "Staleness calibration — bursty arrivals, rate-mixture model",
        mixture,
    ))
    poisson_err = sum(abs(r.error) for r in poisson)
    mixture_err = sum(abs(r.error) for r in mixture)
    pin("staleness_bursty_eq4_total_error", poisson_err)
    pin("staleness_bursty_mixture_total_error", mixture_err)
    assert mixture_err < poisson_err


@pytest.mark.benchmark(group="validation")
def test_hotspot_avoidance(benchmark, report, pin):
    result = benchmark.pedantic(
        run_hotspot_validation, kwargs=dict(reads=300), rounds=1
    )
    report("")
    report(format_table(
        ["strategy", "max/mean reads"],
        [
            ("Algorithm 1 (ert order)", result.with_ert_imbalance),
            ("cdf-greedy (no ert)", result.without_ert_imbalance),
        ],
        title="Hot-spot avoidance (§5.3): read-load imbalance",
    ))
    pin("hotspot_ert_imbalance", result.with_ert_imbalance)
    pin("hotspot_greedy_imbalance", result.without_ert_imbalance)
    assert result.with_ert_imbalance < 1.5
    assert result.without_ert_imbalance > result.with_ert_imbalance
