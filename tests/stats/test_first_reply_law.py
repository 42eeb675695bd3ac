"""The closed-form law the fluid tier draws a batch from.

``first_reply_law`` is Eq. 1 bin by bin with a tie rule, and
``poisson_cdf_phase_mean`` is Eq. 4 averaged over a batch window; together
with one Binomial and two multinomial draws they replace a per-arrival
Monte-Carlo sampler, which is kept here — and only here — as the oracle.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from repro.core.selection import ReplicaView, set_success_probability
from repro.stats.pmf import DiscretePmf, first_reply_law
from repro.stats.poisson import (
    poisson_cdf,
    poisson_cdf_integral,
    poisson_cdf_phase_mean,
)

Q = 1e-3

_pmfs = st.builds(
    lambda offset, mass: DiscretePmf(Q, offset, np.asarray(mass)),
    st.integers(0, 40),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60).filter(
        lambda mass: sum(mass) > 1e-6
    ),
)
# One selected replica: (immediate pmf, deferred pmf, is it a secondary).
_replica = st.tuples(_pmfs, _pmfs, st.booleans())
_replicas = st.lists(_replica, min_size=1, max_size=6)
_OVERSHOOT = DiscretePmf(Q, 14, np.array([0.3, 0.2, 1 / 3, 0.2, 0, 0, 0, 0.001, 0]))


def _classes(replicas):
    """The (pmfs, deferred flags) of the fresh and of the stale class."""
    fresh = ([imm for imm, _, _ in replicas], [False] * len(replicas))
    stale = (
        [dfr if sec else imm for imm, dfr, sec in replicas],
        [sec for _, _, sec in replicas],
    )
    return fresh, stale


# ---------------------------------------------------------------------------
# The law against Eq. 1-3
# ---------------------------------------------------------------------------
@given(replicas=_replicas)
@settings(max_examples=200, deadline=None)
def test_win_vectors_sum_to_one(replicas):
    for pmfs, flags in _classes(replicas):
        offset, win = first_reply_law(pmfs, flags)
        assert win.shape == (2, min(p.offset + p.mass.size for p in pmfs) - offset)
        assert offset == min(p.offset for p in pmfs)
        assert np.all(win >= 0.0)
        assert win.sum() == pytest.approx(1.0, abs=1e-12)


@given(
    replicas=_replicas,
    p_fresh=st.floats(0.0, 1.0),
    deadline_bin=st.integers(0, 110),
)
# A cdf whose running sum overshoots 1.0 by an ulp inside the support.
@example(
    replicas=[(_OVERSHOOT, _OVERSHOOT, True)], p_fresh=0.5, deadline_bin=21
)
@settings(max_examples=200, deadline=None)
def test_cumulative_at_the_deadline_is_eq_1_to_3(replicas, p_fresh, deadline_bin):
    """Mixed by ``stale_factor = p̄``, the mass at or before the deadline
    bin is ``set_success_probability`` (``_PkAccumulator.probability()``)
    over views that carry each replica's two cdf values."""
    deadline = deadline_bin * Q
    views = [
        ReplicaView(
            name=f"r{i}",
            is_primary=not sec,
            immediate_cdf=imm.cdf(deadline),
            delayed_cdf=dfr.cdf(deadline),
            ert=0.0,
        )
        for i, (imm, dfr, sec) in enumerate(replicas)
    ]
    expected = set_success_probability(views, [v.name for v in views], p_fresh)

    def timely(pmfs, flags):
        offset, win = first_reply_law(pmfs, flags)
        return win[:, : max(0, deadline_bin - offset + 1)].sum()

    fresh, stale = _classes(replicas)
    got = p_fresh * timely(*fresh) + (1.0 - p_fresh) * timely(*stale)
    assert got == pytest.approx(expected, abs=1e-12)


def test_a_tie_goes_to_the_replica_listed_first():
    immediate = DiscretePmf.degenerate(0.020, Q)
    deferred = DiscretePmf.degenerate(0.020, Q)
    for flags, winner in (([False, True], 0), ([True, False], 1)):
        offset, win = first_reply_law([immediate, deferred], flags)
        assert offset == 20
        assert win.shape == (2, 1)
        assert win[winner, 0] == 1.0
        assert win[1 - winner, 0] == 0.0


def test_a_replica_that_cannot_be_first_never_wins():
    early = DiscretePmf(Q, 5, np.array([0.5, 0.5]))
    late = DiscretePmf(Q, 30, np.array([0.25, 0.75]))
    for pmfs, flags in (([early, late], [False, True]), ([late, early], [True, False])):
        offset, win = first_reply_law(pmfs, flags)
        assert offset == 5
        assert np.allclose(win[0], [0.5, 0.5])
        assert not win[1].any()


def test_law_validation():
    pmf = DiscretePmf.degenerate(0.010, Q)
    with pytest.raises(ValueError):
        first_reply_law([], [])
    with pytest.raises(ValueError):
        first_reply_law([pmf, pmf], [False])
    with pytest.raises(ValueError):
        first_reply_law([pmf, DiscretePmf.degenerate(0.010, 2 * Q)], [False, True])


# ---------------------------------------------------------------------------
# The retired per-arrival sampler, as oracle
# ---------------------------------------------------------------------------
def _sample_first_replies(replicas, fresh, rng):
    """What ``AggregatedClientPool._resolve_batch`` did per arrival: one
    inverse-CDF draw per selected replica, a strict-``<`` min-reduce in
    selection order, ``deferred`` iff the winning draw came from a stale
    secondary's deferred pmf."""
    m = fresh.size
    n_fresh = int(np.count_nonzero(fresh))
    response = np.full(m, np.inf)
    deferred_win = np.zeros(m, dtype=bool)
    for immediate, deferred, is_secondary in replicas:
        if not is_secondary:
            draws = immediate.sample(m, rng)
            was_deferred = np.zeros(m, dtype=bool)
        else:
            draws = np.empty(m, dtype=float)
            draws[fresh] = immediate.sample(n_fresh, rng)
            draws[~fresh] = deferred.sample(m - n_fresh, rng)
            was_deferred = ~fresh
        better = draws < response
        response[better] = draws[better]
        deferred_win[better] = was_deferred[better]
    return np.rint(response / Q).astype(np.int64), deferred_win


@pytest.mark.parametrize(
    "seed, arrivals",
    [(2002, 2_000_000), (2003, 500_000), (2004, 500_000), (2005, 500_000)],
)
def test_law_matches_the_retired_sampler_chi_squared(seed, arrivals):
    """Four replicas, fixed seeds: per freshness class, χ² of the sampler's
    (bin, deferred) counts against the law, over the outcomes with
    expectation above 5 (the rest pooled), under the 99.9 % point.

    Seed 2002 was the first one tried and is kept although it sits close
    to the bound: 23.8 on 12 dof and 45.9 on 21 dof (p = 0.02 and 0.001)
    at 2·10⁶ arrivals.  Nineteen further seeds were looked at while this
    test was written (0–11 at 5·10⁵; 7, 24, 100–103 and 2003 at 2·10⁶):
    their 38 p-values lie between 0.10 and 0.99 with no skew, and reversing
    the tie rule scores 4,991 on the same 21 dof.  Three of them ride along
    so that one lucky or unlucky draw is not the whole evidence.
    """
    rng = np.random.default_rng(seed)

    def pmf(offset, bins):
        return DiscretePmf(Q, offset, rng.random(bins) + 0.05)

    replicas = [
        (pmf(8, 12), pmf(8, 40), True),
        (pmf(10, 9), None, False),
        (pmf(6, 14), pmf(7, 30), True),
        (pmf(9, 11), None, False),
    ]
    fresh = rng.random(arrivals) < 0.6
    bins, deferred_win = _sample_first_replies(replicas, fresh, rng)

    for in_class, (pmfs, flags) in zip((fresh, ~fresh), _classes(replicas)):
        offset, win = first_reply_law(pmfs, flags)
        size = int(np.count_nonzero(in_class))
        observed = np.zeros(win.shape)
        np.add.at(
            observed, (deferred_win[in_class].astype(int), bins[in_class] - offset), 1
        )
        expected = win * size
        tested = expected > 5.0
        assert tested.sum() > 10
        # The rare outcomes are pooled into one more cell.
        obs = np.append(observed[tested], observed[~tested].sum())
        exp = np.append(expected[tested], expected[~tested].sum())
        keep = exp > 0
        statistic = float(((obs[keep] - exp[keep]) ** 2 / exp[keep]).sum())
        assert statistic < chi2.ppf(0.999, int(keep.sum()) - 1)
    # Fresh arrivals never win on a deferred reply.
    assert not deferred_win[fresh].any()


# ---------------------------------------------------------------------------
# Eq. 4 over a window of phases
# ---------------------------------------------------------------------------
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(96)


def _quadrature(f, lo, hi):
    """Gauss-Legendre over one smooth segment of a scalar integrand (the
    midpoint rule needs ~10⁵ scalar calls per segment to reach 1e-9)."""
    if hi <= lo:
        return 0.0
    half = 0.5 * (hi - lo)
    xs = lo + half * (_NODES + 1.0)
    return half * float(np.dot(_WEIGHTS, [f(x) for x in xs]))


@pytest.mark.parametrize("a", [0, 2, 7])
@pytest.mark.parametrize("rate", [0.0, 1e-9, 0.3, 4.0, 5000.0])
@pytest.mark.parametrize("t", [0.013, 2.0])
def test_integral_matches_quadrature_of_scalar_cdf(a, rate, t):
    # The integrand only moves over the first few 1/rate; give the
    # quadrature its points there.
    knee = min(t, (a + 40.0) / rate) if rate else t
    expected = _quadrature(lambda s: poisson_cdf(a, rate * s), 0.0, knee) + _quadrature(
        lambda s: poisson_cdf(a, rate * s), knee, t
    )
    assert poisson_cdf_integral(a, rate, t) == pytest.approx(expected, abs=1e-9)


def test_integral_edge_cases():
    assert poisson_cdf_integral(-1, 3.0, 1.0) == 0.0
    assert poisson_cdf_integral(2, 0.0, 1.5) == 1.5
    assert poisson_cdf_integral(2, 4.0, 0.0) == 0.0
    # As t grows the integral tends to (a + 1) / rate.
    assert poisson_cdf_integral(2, 4.0, 1e6) == pytest.approx(0.75, abs=1e-12)
    # A vanishing rate leaves H(t) a hair under t, not rounding noise.
    assert poisson_cdf_integral(0, 1e-12, 1.0) == pytest.approx(1.0 - 5e-13, abs=1e-15)
    with pytest.raises(ValueError):
        poisson_cdf_integral(1, -1.0, 1.0)
    with pytest.raises(ValueError):
        poisson_cdf_integral(1, 1.0, -1.0)


@pytest.mark.parametrize(
    "a, rate, start, width, period",
    [
        (2, 5.0, 0.10, 0.25, 0.5),  # inside one lazy cycle
        (2, 5.0, 0.40, 0.25, 0.5),  # wraps once
        (0, 5.0, 0.30, 0.25, 0.5),  # a = 0
        (3, 0.0, 0.30, 0.25, 0.5),  # no updates: always fresh
        (1, 0.7, 0.20, 3.10, 0.5),  # wider than the cycle: wraps six times
        (2, 0.5, 1.90, 2.00, 2.0),  # the validation cells' shape
        (2, 800.0, 0.0, 0.25, 2.0),  # a million users' update rate
    ],
)
def test_phase_mean_matches_quadrature_segment_by_segment(a, rate, start, width, period):
    def eq4(s):
        return poisson_cdf(a, rate * (s % period))

    # Quadrature per continuous segment: the integrand jumps at each wrap
    # and, over a large rate, falls to zero within a few 1/rate of it.
    edges = {start, start + width}
    k = np.ceil(start / period) * period
    while k < start + width:
        edges.add(float(k))
        if rate:
            edges.add(min(start + width, float(k) + (a + 40.0) / rate))
        k += period
    if rate:
        edges.add(min(start + width, start + (a + 40.0) / rate))
    edges = sorted(edges)
    total = sum(
        _quadrature(eq4, lo, hi) for lo, hi in zip(edges, edges[1:])
    )
    got = poisson_cdf_phase_mean(a, rate, start, width, period)
    assert got == pytest.approx(total / width, abs=1e-9)
    assert 0.0 <= got <= 1.0


def test_phase_mean_validation():
    for bad in ((2, 1.0, 0.0, 0.0, 1.0), (2, 1.0, 0.0, 1.0, 0.0), (2, 1.0, -0.1, 1.0, 1.0)):
        with pytest.raises(ValueError):
            poisson_cdf_phase_mean(*bad)
