"""Unit tests for the Poisson CDF and binomial confidence intervals,
cross-checked against scipy."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.stats.confidence import (
    binomial_confidence_interval,
    intervals_overlap,
    proportions_agree,
    wilson_interval,
)
from repro.stats.poisson import poisson_cdf


# ---------------------------------------------------------------------------
# Poisson
# ---------------------------------------------------------------------------


def test_cdf_matches_scipy():
    for mean in (0.01, 0.5, 2.0, 10.0):
        for a in range(0, 25, 2):
            assert poisson_cdf(a, mean) == pytest.approx(
                sps.poisson.cdf(a, mean), abs=1e-10
            )


def test_cdf_zero_mean_is_one():
    assert poisson_cdf(0, 0.0) == 1.0
    assert poisson_cdf(5, 0.0) == 1.0


def test_cdf_negative_threshold_is_zero():
    assert poisson_cdf(-1, 2.0) == 0.0


def test_validation():
    with pytest.raises(ValueError):
        poisson_cdf(1, -0.5)


@given(
    a=st.integers(min_value=0, max_value=50),
    mean=st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=100)
def test_cdf_in_unit_interval_and_monotone(a, mean):
    value = poisson_cdf(a, mean)
    assert 0.0 <= value <= 1.0
    assert poisson_cdf(a + 1, mean) >= value - 1e-12


# ---------------------------------------------------------------------------
# Binomial confidence intervals (§6: 95 % level)
# ---------------------------------------------------------------------------
def test_wald_interval_contains_point_estimate():
    low, high = binomial_confidence_interval(20, 100)
    assert low <= 0.2 <= high


def test_wald_interval_matches_formula():
    low, high = binomial_confidence_interval(50, 100, 0.95)
    half = 1.959963984540054 * math.sqrt(0.25 / 100)
    assert low == pytest.approx(0.5 - half)
    assert high == pytest.approx(0.5 + half)


def test_interval_clamped_to_unit():
    low, high = binomial_confidence_interval(0, 10)
    assert low == 0.0
    low, high = binomial_confidence_interval(10, 10)
    assert high == 1.0


def test_wilson_matches_scipy_binomtest():
    result = sps.binomtest(13, 100).proportion_ci(0.95, method="wilson")
    low, high = wilson_interval(13, 100, 0.95)
    assert low == pytest.approx(result.low, abs=1e-9)
    assert high == pytest.approx(result.high, abs=1e-9)


def test_wilson_never_degenerate_at_extremes():
    low, high = wilson_interval(0, 50)
    assert high > 0.0  # unlike Wald, which collapses to [0, 0]


def test_interval_narrows_with_more_trials():
    narrow = binomial_confidence_interval(100, 1000)
    wide = binomial_confidence_interval(10, 100)
    assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])


def test_validation_errors():
    with pytest.raises(ValueError):
        binomial_confidence_interval(1, 0)
    with pytest.raises(ValueError):
        binomial_confidence_interval(5, 4)
    with pytest.raises(ValueError):
        binomial_confidence_interval(1, 10, level=0.77)
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)


@given(
    trials=st.integers(min_value=1, max_value=10000),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=80)
def test_intervals_well_formed_property(trials, frac):
    successes = int(round(frac * trials))
    for fn in (binomial_confidence_interval, wilson_interval):
        low, high = fn(successes, trials)
        assert 0.0 <= low <= high <= 1.0
        assert low <= successes / trials + 1e-12
        assert high >= successes / trials - 1e-12


# ---------------------------------------------------------------------------
# Interval-overlap agreement (the aggregate-tier validation criterion)
# ---------------------------------------------------------------------------
def test_intervals_overlap_cases():
    assert intervals_overlap((0.1, 0.3), (0.2, 0.5))
    assert intervals_overlap((0.2, 0.5), (0.1, 0.3))  # symmetric
    assert intervals_overlap((0.1, 0.2), (0.2, 0.4))  # touching endpoints
    assert intervals_overlap((0.1, 0.5), (0.2, 0.3))  # containment
    assert not intervals_overlap((0.1, 0.2), (0.3, 0.4))
    assert not intervals_overlap((0.3, 0.4), (0.1, 0.2))


def test_proportions_agree_identical_and_disjoint():
    # Same underlying proportion with decent samples: agree.
    assert proportions_agree(10, 100, 12, 100)
    # Wildly different proportions with large samples: disagree.
    assert not proportions_agree(5, 1000, 500, 1000)


def test_proportions_agree_zero_trials_is_vacuous():
    assert proportions_agree(0, 0, 50, 100)
    assert proportions_agree(50, 100, 0, 0)
    assert proportions_agree(0, 0, 0, 0)


def test_proportions_agree_small_samples_are_forgiving():
    # Wilson intervals at n=10 are wide: 0/10 vs 3/10 still overlaps.
    assert proportions_agree(0, 10, 3, 10)


def test_proportions_agree_level_tightens_intervals():
    # A borderline pair can agree at 99% but not at a looser 80% level.
    args = (12, 200, 30, 200)
    assert proportions_agree(*args, level=0.99)
    assert not proportions_agree(*args, level=0.80)
