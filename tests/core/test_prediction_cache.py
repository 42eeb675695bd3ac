"""Tests for the versioned count cache (§5.2 hot path).

The predictor caches, per replica, the exact counts of ``S ⊛ W`` keyed on
``(ts_window.version, tq_window.version)`` — nothing else.  The gateway
delay is a bin offset and the lazy-wait term is counted against at
evaluation time, so neither a reply nor a ``t_b`` sample rebuilds anything.
Because the arithmetic is exact, a cached predictor and an uncached one
observing the same repository return *equal* values across arbitrary
interleavings of measurements and queries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prediction import ResponseTimePredictor
from repro.core.repository import ClientInfoRepository
from repro.core.requests import PerfBroadcast
from repro.stats.pmf import CountHistogram


def _fill(repo, replica="r", n=5, tb=True):
    for i in range(n):
        repo.record_broadcast(
            PerfBroadcast(
                replica=replica,
                ts=0.010 + 0.001 * i,
                tq=0.002,
                tb=(0.100 + 0.010 * i) if tb else None,
            )
        )
    repo.record_reply(replica, tg=0.001, now=1.0)


def _paired_predictors(**kwargs):
    repo = ClientInfoRepository(window_size=8)
    cached = ResponseTimePredictor(repo, 2.0, use_cache=True, **kwargs)
    fresh = ResponseTimePredictor(repo, 2.0, use_cache=False, **kwargs)
    return repo, cached, fresh


@pytest.fixture
def convolutions(monkeypatch):
    """Counts every ``S ⊛ W`` rebuild, whoever asks for it."""
    calls = []
    convolve = CountHistogram.convolve

    def counting(self, other):
        calls.append((self, other))
        return convolve(self, other)

    monkeypatch.setattr(CountHistogram, "convolve", counting)
    return calls


# ---------------------------------------------------------------------------
# Hit / miss / invalidation accounting: one lookup per evaluation
# ---------------------------------------------------------------------------
def test_steady_state_reads_hit_the_cache(convolutions):
    repo = ClientInfoRepository(8)
    _fill(repo)
    predictor = ResponseTimePredictor(repo, 2.0)
    predictor.response_cdfs("r", 0.150)
    assert predictor.cache_stats == {"hits": 0, "misses": 1, "invalidations": 0}
    predictor.response_cdfs("r", 0.200)  # different deadline, same counts
    predictor.immediate_cdf("r", 0.200)  # F^I and F^D share the one entry
    assert predictor.cache_stats == {"hits": 2, "misses": 1, "invalidations": 0}
    assert len(convolutions) == 1


def test_new_measurement_invalidates(convolutions):
    repo = ClientInfoRepository(8)
    _fill(repo)
    predictor = ResponseTimePredictor(repo, 2.0)
    predictor.response_cdfs("r", 0.150)
    repo.record_broadcast(PerfBroadcast(replica="r", ts=0.02, tq=0.001, tb=0.2))
    predictor.response_cdfs("r", 0.150)
    # The ts/tq versions moved: the entry is stale and is replaced.
    assert predictor.cache_stats == {"hits": 0, "misses": 2, "invalidations": 1}
    assert len(convolutions) == 2


def test_gateway_delay_changes_the_value_without_rebuilding(convolutions):
    """G is a bin offset applied at evaluation time, not part of the key."""
    repo = ClientInfoRepository(8)
    _fill(repo)
    predictor = ResponseTimePredictor(repo, 2.0)
    before = predictor.response_cdfs("r", 0.120)
    repo.record_reply("r", tg=0.050, now=2.0)  # same windows, new G
    after = predictor.response_cdfs("r", 0.120)
    assert after[0] <= before[0] and after[1] < before[1]  # shifted right
    assert predictor.immediate_cdf("r", 0.020) == 0.0  # 10 + 2 + 50 ms > 20 ms
    assert predictor.cache_stats == {"hits": 2, "misses": 1, "invalidations": 0}
    assert len(convolutions) == 1
    fresh = ResponseTimePredictor(repo, 2.0, use_cache=False)
    assert fresh.response_cdfs("r", 0.120) == after


def test_lazy_wait_sample_changes_the_value_without_rebuilding(convolutions):
    """A t_b sample that leaves t_s/t_q alone cannot exist on the wire (a
    broadcast carries all three), so move the window directly: F^D follows
    the new history, the S ⊛ W entry stays."""
    repo = ClientInfoRepository(8)
    _fill(repo)
    predictor = ResponseTimePredictor(repo, 2.0)
    _, before = predictor.response_cdfs("r", 0.150)
    repo.stats_for("r").tb_window.record(1.5)
    _, after = predictor.response_cdfs("r", 0.150)
    assert after < before
    assert predictor.cache_stats == {"hits": 1, "misses": 1, "invalidations": 0}
    assert len(convolutions) == 1


def test_unchanged_gateway_delay_does_not_invalidate():
    repo = ClientInfoRepository(8)
    _fill(repo)
    predictor = ResponseTimePredictor(repo, 2.0)
    predictor.immediate_cdf("r", 0.150)
    repo.record_reply("r", tg=0.001, now=2.0)  # identical latest_tg
    predictor.immediate_cdf("r", 0.150)
    assert predictor.cache_hits == 1
    assert predictor.cache_invalidations == 0


def test_bootstrap_path_bypasses_cache():
    repo = ClientInfoRepository(8)
    predictor = ResponseTimePredictor(repo, 2.0)
    assert predictor.response_cdfs("unknown", 0.1) == (1.0, 1.0)
    assert predictor.cache_stats == {"hits": 0, "misses": 0, "invalidations": 0}


def test_disabled_cache_keeps_counters_at_zero():
    repo = ClientInfoRepository(8)
    _fill(repo)
    predictor = ResponseTimePredictor(repo, 2.0, use_cache=False)
    predictor.response_cdfs("r", 0.150)
    predictor.response_cdfs("r", 0.150)
    assert predictor.cache_stats == {"hits": 0, "misses": 0, "invalidations": 0}


def test_clear_cache_forces_recompute():
    repo = ClientInfoRepository(8)
    _fill(repo)
    predictor = ResponseTimePredictor(repo, 2.0)
    first = predictor.response_cdfs("r", 0.150)
    predictor.clear_cache()
    assert predictor.response_cdfs("r", 0.150) == first
    assert predictor.cache_stats == {"hits": 0, "misses": 2, "invalidations": 0}


def test_lazy_interval_change_invalidates_deferred_pmf():
    """The Uniform(0, T_L) term follows the T_L in force: retuning it moves
    F^D at once (the ramp is laid out per evaluation, S ⊛ W is not rebuilt)
    and must not reuse a sampling pmf built for the old interval."""
    repo = ClientInfoRepository(8)
    _fill(repo, tb=False)  # no t_b history -> Uniform(0, T_L) fallback
    predictor = ResponseTimePredictor(repo, 2.0)
    _, before = predictor.response_cdfs("r", 0.5)
    _, wide = predictor.response_pmfs("r")
    predictor.lazy_update_interval = 0.4
    _, after = predictor.response_cdfs("r", 0.5)
    _, narrow = predictor.response_pmfs("r")
    assert after > before  # shorter interval -> much tighter lazy wait
    assert narrow.mass.size == wide.mass.size - 1600
    assert narrow.cdf(0.5) == pytest.approx(after, abs=1e-12)
    assert predictor.cache_stats == {"hits": 3, "misses": 1, "invalidations": 0}


def test_per_replica_isolation():
    repo = ClientInfoRepository(8)
    _fill(repo, "a")
    _fill(repo, "b")
    predictor = ResponseTimePredictor(repo, 2.0)
    predictor.response_cdfs("a", 0.15)
    predictor.response_cdfs("b", 0.15)
    repo.record_broadcast(PerfBroadcast(replica="a", ts=0.02, tq=0.001, tb=0.1))
    predictor.response_cdfs("a", 0.15)
    predictor.response_cdfs("b", 0.15)  # b untouched: still a hit
    assert predictor.cache_stats == {"hits": 1, "misses": 3, "invalidations": 1}


def test_response_pmfs_ride_the_same_entry(convolutions):
    """The sampling pmfs are materialized from the cached counts and kept
    until the counts, the gateway bins or the lazy-wait term change."""
    repo = ClientInfoRepository(8)
    _fill(repo)
    predictor = ResponseTimePredictor(repo, 2.0)
    immediate, deferred = predictor.response_pmfs("r")
    again = predictor.response_pmfs("r")
    assert again[0] is immediate and again[1] is deferred
    assert len(convolutions) == 1
    for deadline in (0.011, 0.014, 0.120, 0.150, 0.3):
        exact = predictor.response_cdfs("r", deadline)
        assert immediate.cdf(deadline) == pytest.approx(exact[0], abs=1e-12)
        assert deferred.cdf(deadline) == pytest.approx(exact[1], abs=1e-12)
    repo.record_reply("r", tg=0.004, now=2.0)
    shifted, _ = predictor.response_pmfs("r")
    assert shifted.offset == immediate.offset + 3
    assert len(convolutions) == 1  # a new G re-materializes, S ⊛ W stays
    assert predictor.response_pmfs("unknown") == (None, None)


# ---------------------------------------------------------------------------
# Exact equivalence with fresh recomputation
# ---------------------------------------------------------------------------
def test_cached_results_equal_uncached_exactly():
    repo, cached, fresh = _paired_predictors()
    _fill(repo)
    for deadline in (0.05, 0.113, 0.150, 0.8):
        assert cached.response_cdfs("r", deadline) == fresh.response_cdfs(
            "r", deadline
        )
        assert cached.immediate_cdf("r", deadline) == fresh.immediate_cdf(
            "r", deadline
        )


def test_quantum_mismatch_falls_back_to_samples():
    """A predictor on a different grid than the repository's windows must
    still agree with uncached recomputation (via the raw-sample path)."""
    repo = ClientInfoRepository(window_size=8, quantum=1e-3)
    _fill(repo)
    cached = ResponseTimePredictor(repo, 2.0, quantum=5e-4, use_cache=True)
    fresh = ResponseTimePredictor(repo, 2.0, quantum=5e-4, use_cache=False)
    assert cached.response_cdfs("r", 0.15) == fresh.response_cdfs("r", 0.15)


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("broadcast"),
            st.floats(min_value=0.0, max_value=0.3),  # ts
            st.floats(min_value=0.0, max_value=0.05),  # tq
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.5)),  # tb
        ),
        st.tuples(st.just("reply"), st.floats(min_value=0.0, max_value=0.01)),
        st.tuples(st.just("query"), st.floats(min_value=0.0, max_value=2.0)),
    ),
    min_size=1,
    max_size=40,
)


@given(ops=_ops)
@settings(max_examples=60, deadline=None)
def test_cache_equivalence_property(ops):
    """Across arbitrary record/evict/query interleavings, the cached
    predictor's CDFs are *exactly* equal to fresh recomputation."""
    repo, cached, fresh = _paired_predictors()
    now = 1.0
    for op in ops:
        if op[0] == "broadcast":
            _, ts, tq, tb = op
            repo.record_broadcast(PerfBroadcast(replica="r", ts=ts, tq=tq, tb=tb))
        elif op[0] == "reply":
            now += 1.0
            repo.record_reply("r", tg=op[1], now=now)
        else:
            deadline = op[1]
            assert cached.response_cdfs("r", deadline) == fresh.response_cdfs(
                "r", deadline
            )
            assert cached.immediate_cdf("r", deadline) == fresh.immediate_cdf(
                "r", deadline
            )


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------
def test_repository_propagates_quantum_to_windows():
    repo = ClientInfoRepository(window_size=4, quantum=2e-3)
    stats = repo.stats_for("x")
    assert stats.ts_window.quantum == 2e-3
    assert stats.tq_window.quantum == 2e-3
    assert stats.tb_window.quantum == 2e-3
    with pytest.raises(ValueError):
        ClientInfoRepository(window_size=4, quantum=0.0)
