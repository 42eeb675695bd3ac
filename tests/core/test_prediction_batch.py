"""Batched prediction APIs pinned to the scalar path.

Two surfaces: ``candidate_cdfs`` (many replicas, one deadline — every
candidate of a read, for the strategies that take the whole list) and ``DiscretePmf.cdf_many`` (one
pmf, a batch of points — the gather the fluid tier samples through).  The
load-bearing property is that neither may drift from the scalar methods:
exactly equal values and, for the fused path, the *same evaluation
count* so Figure 3/4 telemetry is unchanged.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prediction import ResponseTimePredictor
from repro.core.repository import ClientInfoRepository
from repro.core.requests import PerfBroadcast
from repro.stats.pmf import DiscretePmf


def _repo(replicas, seed=0, window_size=20):
    """Replicas with distinct histories (some with tb, one empty)."""
    rng = np.random.default_rng(seed)
    repo = ClientInfoRepository(window_size=window_size)
    for i, name in enumerate(replicas):
        if name.startswith("empty"):
            continue  # bootstrap path: no history at all
        for _ in range(window_size):
            repo.record_broadcast(
                PerfBroadcast(
                    replica=name,
                    ts=max(0.002, rng.normal(0.08 + 0.01 * i, 0.03)),
                    tq=max(0.0, rng.normal(0.01, 0.008)),
                    tb=rng.uniform(0.0, 2.0) if i % 2 else None,
                )
            )
        repo.record_reply(name, tg=rng.uniform(0.0005, 0.002), now=1.0)
    return repo


def test_candidate_cdfs_bit_identical_to_scalar_loop():
    """The fused per-read path replays the scalar sequence exactly: same
    values AND the same evaluation count afterwards.  Only the fused path
    has a memo: one lookup per candidate with history each read."""
    primaries = ["p1", "p2"]
    secondaries = ["s1", "s2", "s3", "empty1"]
    repo = _repo(primaries + secondaries)
    fused_p = ResponseTimePredictor(repo, 2.0)
    scalar_p = ResponseTimePredictor(repo, 2.0)
    for deadline in (0.05, 0.1, 0.1, 0.25):  # repeat -> cache-hit round
        primary_cdfs, secondary_pairs = fused_p.candidate_cdfs(
            primaries, secondaries, deadline
        )
        expected_primary = [scalar_p.immediate_cdf(n, deadline) for n in primaries]
        expected_pairs = [scalar_p.response_cdfs(n, deadline) for n in secondaries]
        assert primary_cdfs == expected_primary  # exact, not approx
        assert secondary_pairs == expected_pairs
    assert fused_p.evaluations.value == scalar_p.evaluations.value
    lookups = (fused_p.cache_hits.value, fused_p.cache_misses.value)
    assert lookups == (5, 15)  # the repeated 0.1 round is all hits
    assert fused_p.cache_invalidations.value == 10  # a new deadline: stale
    assert (scalar_p.cache_hits.value, scalar_p.cache_misses.value) == (0, 0)


@settings(deadline=None, max_examples=40)
@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    xs=st.lists(
        st.floats(min_value=-1.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
)
def test_cdf_many_identical_to_scalar_cdf(samples, xs):
    """The gather the fluid tier samples through: element-for-element equal
    to the scalar cdf, including edge bins, for arbitrary grids."""
    pmf = DiscretePmf.from_samples(samples)
    batch = pmf.cdf_many(xs)
    scalar = [pmf.cdf(x) for x in xs]
    assert batch.tolist() == scalar  # exact equality, same code path
