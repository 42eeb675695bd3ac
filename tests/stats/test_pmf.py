"""Unit and property tests for discrete pmfs and convolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.pmf import CountHistogram, DiscretePmf, convolve_all, quantize_bins
from repro.stats.sliding_window import SlidingWindow, quantize_bin

Q = 1e-3


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------
def test_from_samples_relative_frequency():
    pmf = DiscretePmf.from_samples([0.010, 0.010, 0.020, 0.030], Q)
    assert pmf.cdf(0.010) == pytest.approx(0.5)
    assert pmf.cdf(0.020) == pytest.approx(0.75)
    assert pmf.cdf(0.030) == pytest.approx(1.0)


def test_from_samples_quantizes_to_grid():
    pmf = DiscretePmf.from_samples([0.0104, 0.0096], Q)  # both round to 10 ms
    assert pmf.mass.size == 1
    assert pmf.mean() == pytest.approx(0.010)


def test_from_samples_clamps_negative():
    pmf = DiscretePmf.from_samples([-0.5, 0.002], Q)
    assert pmf.support_min == 0.0


def test_from_samples_empty_rejected():
    with pytest.raises(ValueError):
        DiscretePmf.from_samples([], Q)


def test_from_samples_accepts_any_iterable():
    pmf = DiscretePmf.from_samples((s for s in [0.010, 0.020]), Q)
    assert pmf.mean() == pytest.approx(0.015)


def test_from_histogram_matches_from_samples():
    samples = [0.010, 0.010, 0.020, 0.030]
    fresh = DiscretePmf.from_samples(samples, Q)
    counts = np.zeros(21)
    counts[0], counts[10], counts[20] = 2.0, 1.0, 1.0  # bins 10, 20, 30
    binned = DiscretePmf.from_histogram(Q, 10, counts)
    assert binned.offset == fresh.offset
    np.testing.assert_array_equal(binned.mass, fresh.mass)


def test_from_histogram_validation():
    with pytest.raises(ValueError):
        DiscretePmf.from_histogram(Q, 0, [])
    with pytest.raises(ValueError):
        DiscretePmf.from_histogram(Q, -1, [1.0])


def test_degenerate_point_mass():
    pmf = DiscretePmf.degenerate(0.005, Q)
    assert pmf.mean() == pytest.approx(0.005)
    assert pmf.cdf(0.004) == 0.0
    assert pmf.cdf(0.005) == 1.0


def test_validation():
    with pytest.raises(ValueError):
        DiscretePmf(0.0, 0, np.array([1.0]))
    with pytest.raises(ValueError):
        DiscretePmf(Q, -1, np.array([1.0]))
    with pytest.raises(ValueError):
        DiscretePmf(Q, 0, np.array([]))
    with pytest.raises(ValueError):
        DiscretePmf(Q, 0, np.array([-0.5, 1.0]))
    with pytest.raises(ValueError):
        DiscretePmf(Q, 0, np.array([0.0]))


def test_mass_is_normalized():
    pmf = DiscretePmf(Q, 0, np.array([2.0, 2.0]))
    assert pmf.mass.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------
def test_cdf_bounds():
    pmf = DiscretePmf.from_samples([0.010, 0.020], Q)
    assert pmf.cdf(0.0) == 0.0
    assert pmf.cdf(1.0) == 1.0


def test_mean_and_variance():
    pmf = DiscretePmf.from_samples([0.010, 0.030], Q)
    assert pmf.mean() == pytest.approx(0.020)
    assert pmf.variance() == pytest.approx(0.0001, rel=1e-6)


def test_quantile():
    pmf = DiscretePmf.from_samples([0.010, 0.020, 0.030, 0.040], Q)
    assert pmf.quantile(0.25) == pytest.approx(0.010)
    assert pmf.quantile(0.5) == pytest.approx(0.020)
    assert pmf.quantile(1.0) == pytest.approx(0.040)
    with pytest.raises(ValueError):
        pmf.quantile(1.5)


def test_cdf_many_matches_scalar_cdf():
    pmf = DiscretePmf.from_samples([0.010, 0.010, 0.020, 0.030], Q)
    xs = [-0.5, 0.0, 0.0099, 0.010, 0.015, 0.020, 0.030, 5.0]
    batched = pmf.cdf_many(xs)
    assert batched.tolist() == [pmf.cdf(x) for x in xs]


def test_cdf_many_exact_bounds():
    pmf = DiscretePmf.from_samples([0.010, 0.020], Q)
    values = pmf.cdf_many([0.0, 100.0])
    assert values[0] == 0.0
    assert values[1] == 1.0  # exactly, like the scalar path


def test_cdf_never_exceeds_one_inside_the_support():
    # The normalised running sum reaches 1 + 1 ulp before the last bin.
    pmf = DiscretePmf(Q, 14, np.array([0.3, 0.2, 1 / 3, 0.2, 0, 0, 0, 0.001, 0]))
    assert pmf._cumulative()[7] > 1.0
    assert pmf.cdf(0.021) == 1.0
    assert pmf.cdf_many([0.021, 0.022]).tolist() == [1.0, 1.0]


def test_cdf_many_accepts_numpy_input():
    pmf = DiscretePmf.degenerate(0.005, Q)
    out = pmf.cdf_many(np.array([0.004, 0.005]))
    assert out.tolist() == [0.0, 1.0]


def test_repeated_cdf_calls_use_cached_cumulative():
    pmf = DiscretePmf.from_samples([0.010, 0.020, 0.030], Q)
    first = pmf.cdf(0.020)
    assert pmf._cumulative() is pmf._cumulative()  # materialized once
    assert pmf.cdf(0.020) == first


# ---------------------------------------------------------------------------
# Algebra
# ---------------------------------------------------------------------------
def test_convolution_of_point_masses():
    a = DiscretePmf.degenerate(0.010, Q)
    b = DiscretePmf.degenerate(0.005, Q)
    c = a.convolve(b)
    assert c.mean() == pytest.approx(0.015)
    assert c.cdf(0.0149) == 0.0
    assert c.cdf(0.015) == 1.0


def test_convolution_mean_additive():
    a = DiscretePmf.from_samples([0.010, 0.020, 0.020], Q)
    b = DiscretePmf.from_samples([0.005, 0.015], Q)
    assert a.convolve(b).mean() == pytest.approx(a.mean() + b.mean())


def test_convolution_commutative():
    a = DiscretePmf.from_samples([0.010, 0.030], Q)
    b = DiscretePmf.from_samples([0.005, 0.015, 0.025], Q)
    ab, ba = a.convolve(b), b.convolve(a)
    assert ab.offset == ba.offset
    np.testing.assert_allclose(ab.mass, ba.mass)


def test_convolution_quantum_mismatch_rejected():
    a = DiscretePmf.degenerate(0.01, 1e-3)
    b = DiscretePmf.degenerate(0.01, 1e-4)
    with pytest.raises(ValueError):
        a.convolve(b)


def test_shift_moves_support():
    pmf = DiscretePmf.from_samples([0.010], Q).shift(0.007)
    assert pmf.mean() == pytest.approx(0.017)


def test_shift_negative_beyond_support_rejected():
    with pytest.raises(ValueError):
        DiscretePmf.degenerate(0.001, Q).shift(-0.005)


def test_mixture_weights():
    a = DiscretePmf.degenerate(0.010, Q)
    b = DiscretePmf.degenerate(0.030, Q)
    mix = a.mix(b, 0.25)
    assert mix.cdf(0.010) == pytest.approx(0.25)
    assert mix.cdf(0.030) == pytest.approx(1.0)
    assert mix.mean() == pytest.approx(0.25 * 0.010 + 0.75 * 0.030)


def test_mixture_validation():
    a = DiscretePmf.degenerate(0.010, Q)
    with pytest.raises(ValueError):
        a.mix(a, 1.5)


def test_convolve_all():
    pmfs = [DiscretePmf.degenerate(0.001 * i, Q) for i in (1, 2, 3)]
    assert convolve_all(pmfs).mean() == pytest.approx(0.006)
    with pytest.raises(ValueError):
        convolve_all([])


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------
samples_strategy = st.lists(
    st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=40
)


@given(samples=samples_strategy)
@settings(max_examples=80)
def test_mass_always_sums_to_one(samples):
    pmf = DiscretePmf.from_samples(samples, Q)
    assert pmf.mass.sum() == pytest.approx(1.0)


@given(samples=samples_strategy)
@settings(max_examples=80)
def test_cdf_is_monotone(samples):
    pmf = DiscretePmf.from_samples(samples, Q)
    xs = np.linspace(0, 2.5, 50)
    values = [pmf.cdf(x) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0)


@given(a=samples_strategy, b=samples_strategy)
@settings(max_examples=60)
def test_convolution_mean_additive_property(a, b):
    pa = DiscretePmf.from_samples(a, Q)
    pb = DiscretePmf.from_samples(b, Q)
    conv = pa.convolve(pb)
    assert conv.mean() == pytest.approx(pa.mean() + pb.mean(), abs=1e-9)
    assert conv.mass.sum() == pytest.approx(1.0)


@given(a=samples_strategy, b=samples_strategy)
@settings(max_examples=60)
def test_convolution_cdf_dominated_by_components(a, b):
    """P(X+Y <= d) <= min(P(X <= d), P(Y <= d)) for non-negative X, Y."""
    pa = DiscretePmf.from_samples(a, Q)
    pb = DiscretePmf.from_samples(b, Q)
    conv = pa.convolve(pb)
    for d in (0.05, 0.5, 1.5):
        assert conv.cdf(d) <= min(pa.cdf(d), pb.cdf(d)) + 1e-9


@given(samples=samples_strategy, q=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60)
def test_quantile_inverts_cdf(samples, q):
    pmf = DiscretePmf.from_samples(samples, Q)
    v = pmf.quantile(q)
    assert pmf.cdf(v) >= q - 1e-9


@given(
    samples=samples_strategy,
    xs=st.lists(st.floats(min_value=-1.0, max_value=3.0), min_size=1, max_size=30),
)
@settings(max_examples=80)
def test_cdf_many_identical_to_scalar_property(samples, xs):
    """Batched evaluation must equal the scalar path element for element."""
    pmf = DiscretePmf.from_samples(samples, Q)
    assert pmf.cdf_many(xs).tolist() == [pmf.cdf(x) for x in xs]


# ---------------------------------------------------------------------------
# convolve_all: balanced tree + FFT fast path
# ---------------------------------------------------------------------------
def _direct_fold(pmfs):
    """The historical exact reference: left fold over DiscretePmf.convolve
    (pairwise np.convolve with per-step renormalization)."""
    result = pmfs[0]
    for pmf in pmfs[1:]:
        result = result.convolve(pmf)
    return result


def _wide_pmf(rng, bins, offset):
    mass = rng.random(bins) + 1e-6  # strictly positive, un-normalized
    return DiscretePmf(Q, offset, mass)


def test_convolve_all_small_inputs_bit_identical_to_fold():
    """Below the FFT threshold the historical fold runs unchanged."""
    rng = np.random.default_rng(7)
    pmfs = [_wide_pmf(rng, bins, off) for bins, off in ((30, 1), (50, 0), (20, 4), (40, 2))]
    tree = convolve_all(pmfs)
    fold = _direct_fold(pmfs)
    assert tree.offset == fold.offset
    np.testing.assert_array_equal(tree.mass, fold.mass)


def test_convolve_all_fft_path_matches_direct():
    from repro.stats.pmf import CONVOLVE_FFT_THRESHOLD

    rng = np.random.default_rng(11)
    pmfs = [_wide_pmf(rng, 500, i) for i in range(4)]
    assert sum(p.mass.size for p in pmfs) >= CONVOLVE_FFT_THRESHOLD
    fast = convolve_all(pmfs)
    exact = _direct_fold(pmfs)
    assert fast.offset == exact.offset
    assert fast.mass.size == exact.mass.size
    np.testing.assert_allclose(fast.mass, exact.mass, atol=1e-12)
    assert fast.mass.min() >= 0.0
    assert fast.mass.sum() == pytest.approx(1.0)


def test_convolve_all_quantum_mismatch_rejected():
    a = DiscretePmf.degenerate(0.010, Q)
    b = DiscretePmf.degenerate(0.010, 2 * Q)
    with pytest.raises(ValueError):
        convolve_all([a, b])


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sizes=st.lists(st.integers(min_value=200, max_value=700), min_size=2, max_size=5),
)
@settings(max_examples=20, deadline=None)
def test_convolve_all_fft_exactness_property(seed, sizes):
    """Property (ISSUE 2): the FFT/tree path agrees with direct convolution
    within 1e-12 on every bin, for arbitrary positive mass shapes."""
    rng = np.random.default_rng(seed)
    pmfs = [_wide_pmf(rng, bins, int(rng.integers(0, 10))) for bins in sizes]
    fast = convolve_all(pmfs)
    exact = _direct_fold(pmfs)
    assert fast.offset == exact.offset
    np.testing.assert_allclose(fast.mass, exact.mass, atol=1e-12)
    assert fast.mean() == pytest.approx(exact.mean(), abs=1e-9)


# ---------------------------------------------------------------------------
# Vectorized sampling (the aggregate tier's outcome-draw primitive)
# ---------------------------------------------------------------------------
def test_sample_edge_cases():
    pmf = DiscretePmf.degenerate(0.010, Q)
    rng = np.random.default_rng(0)
    assert pmf.sample(0, rng).size == 0
    with pytest.raises(ValueError):
        pmf.sample(-1, rng)


def test_sample_degenerate_returns_the_single_value():
    pmf = DiscretePmf.degenerate(0.025, Q)
    draws = pmf.sample(100, np.random.default_rng(1))
    np.testing.assert_allclose(draws, 0.025)


def test_sample_values_are_grid_points_of_the_support():
    pmf = DiscretePmf.from_samples([0.010, 0.020, 0.020, 0.040], Q)
    draws = pmf.sample(2000, np.random.default_rng(2))
    support = {
        round((pmf.offset + i) * Q, 9)
        for i in range(pmf.mass.size)
        if pmf.mass[i] > 0
    }
    assert {round(v, 9) for v in draws} <= support


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_sample_distribution_matches_mass_property(seed):
    """Empirical frequencies converge on the pmf's mass vector."""
    rng = np.random.default_rng(seed)
    mass = rng.random(6) + 0.05
    mass /= mass.sum()
    pmf = DiscretePmf(offset=3, mass=mass, quantum=Q)
    n = 20_000
    draws = pmf.sample(n, rng)
    indices = np.rint(draws / Q).astype(int) - pmf.offset
    counts = np.bincount(indices, minlength=mass.size)
    np.testing.assert_allclose(counts / n, mass, atol=0.02)
    # Sample mean tracks the analytic mean.
    assert abs(draws.mean() - pmf.mean()) < 5 * Q


class _FixedUniforms:
    """Stands in for a Generator: hands ``sample`` the uniforms it is given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bins=st.integers(min_value=1, max_value=400),
    holes=st.floats(min_value=0.0, max_value=0.9),
    batches=st.lists(st.integers(min_value=1, max_value=1500), min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_sample_is_the_plain_searchsorted_lookup_draw_for_draw(
    seed, bins, holes, batches
):
    """The guide-table lookup is an implementation detail: every draw is
    ``searchsorted(cum, u, side="right")`` capped at the last bin, for
    batches below and above the table's break-even, on pmfs with empty
    bins, vanishing tails and heavy atoms, and for uniforms that sit
    exactly on a cdf step or on a slice boundary of the table."""
    rng = np.random.default_rng(seed)
    mass = rng.random(bins) ** 4
    mass[rng.random(bins) < holes] = 0.0
    mass[int(rng.integers(bins))] += rng.choice([1e-12, 1.0, 50.0])
    pmf = DiscretePmf(Q, int(rng.integers(0, 50)), mass)
    cum = np.cumsum(pmf.mass)
    for n in batches:
        u = rng.random(n)
        on_a_step = cum[rng.integers(0, bins, size=n)]
        on_a_slice = rng.integers(0, 8 * bins, size=n) / float(
            1 << (8 * bins).bit_length()
        )
        pick = rng.integers(0, 4, size=n)
        u = np.where(pick == 1, on_a_step, np.where(pick == 2, on_a_slice, u))
        u = np.minimum(u, np.nextafter(1.0, 0.0))
        u[0] = rng.choice([0.0, np.nextafter(1.0, 0.0), u[0]])
        expected = np.minimum(np.searchsorted(cum, u, side="right"), bins - 1)
        draws = pmf.sample(n, _FixedUniforms(u))
        assert draws.tolist() == ((pmf.offset + expected) * Q).tolist()


def test_sample_small_batches_build_no_table_and_large_ones_reuse_it():
    pmf = DiscretePmf(Q, 0, np.ones(64))
    rng = np.random.default_rng(3)
    pmf.sample(63, rng)
    assert pmf._guide is None
    pmf.sample(64, rng)
    table = pmf._guide
    assert table is not None and table.size == 256
    pmf.sample(5000, rng)
    assert pmf._guide is table


# ---------------------------------------------------------------------------
# CountHistogram: exact integer counts on the grid
# ---------------------------------------------------------------------------
def test_quantize_bins_is_the_vector_twin_of_quantize_bin():
    values = [-1.0, 0.0, 0.0005, 0.0015, 0.0025, 0.9987, 123.456]
    assert quantize_bins(values, Q).tolist() == [quantize_bin(v, Q) for v in values]
    assert quantize_bins(iter(values), Q).dtype == np.int64
    with pytest.raises(ValueError):
        quantize_bins([], Q)


def test_count_histogram_from_samples_matches_the_window_histogram():
    samples = [0.010, 0.0104, 0.020, 0.030, -0.5]
    window = SlidingWindow(8, quantum=Q)
    window.extend(samples)
    offset, counts = window.histogram(Q)
    binned = CountHistogram.from_samples(samples, Q)
    assert (binned.offset, binned.total) == (offset, len(samples))
    assert binned.counts.tolist() == counts.tolist()
    assert counts.dtype == np.int64 and int(counts.sum()) == len(samples)


_bin_lists = st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=40)


@given(xs=_bin_lists, ys=_bin_lists, n=st.integers(1, 50), k=st.integers(-5, 200))
@settings(max_examples=200, deadline=None)
def test_count_histogram_counts_equal_brute_force(xs, ys, n, k):
    x = CountHistogram.from_samples([b * Q for b in xs], Q)
    y = CountHistogram.from_samples([b * Q for b in ys], Q)
    assert x.count_le(k) == sum(1 for a in xs if a <= k)
    ks = np.arange(k - 70, k + 70)
    assert x.count_le_many(ks).tolist() == [x.count_le(int(v)) for v in ks]
    both = x.convolve(y)
    assert both.total == len(xs) * len(ys) == int(both.counts.sum())
    assert both.count_le(k) == sum(1 for a in xs for b in ys if a + b <= k)
    assert x.count_sum_le(k, np.array(ys)) == both.count_le(k)
    assert x.count_sum_le_uniform(k, n) == sum(
        1 for a in xs for u in range(n) if a + u <= k
    )


def test_count_histogram_refuses_products_that_overflow_int64():
    wide = CountHistogram(0, np.array([1], dtype=np.int64), 2**62)
    with pytest.raises(OverflowError):
        wide.convolve(wide)
    with pytest.raises(OverflowError):
        wide.count_sum_le_uniform(0, 2)
    with pytest.raises(OverflowError):
        wide.count_sum_le(0, np.zeros(2, dtype=np.int64))
