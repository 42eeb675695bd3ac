"""Tests for the predictor's two memos (§5.2 hot path).

An evaluation counts straight off the windows and caches nothing.  Two
memos sit above it, each keyed on everything it depends on: the per-replica
values behind ``candidate_cdfs`` and the sampling pmfs behind
``response_pmfs``.  Every lookup of either counts one hit or one miss, and
a miss that replaces a stale slot one invalidation.  Because the arithmetic
is exact, the memoised values *equal* the scalar methods' across arbitrary
interleavings of measurements and queries.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.prediction import ResponseTimePredictor
from repro.core.repository import ClientInfoRepository
from repro.core.requests import PerfBroadcast, StalenessInfo
from repro.stats.pmf import CountHistogram


def _cache(predictor):
    """The count cache's (hits, misses, invalidations)."""
    return (
        predictor.cache_hits.value,
        predictor.cache_misses.value,
        predictor.cache_invalidations.value,
    )


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


@pytest.fixture
def convolutions(monkeypatch):
    """Counts every ``S ⊛ W`` build, whoever asks for it."""
    calls = []
    convolve = CountHistogram.convolve

    def counting(self, other):
        calls.append((self, other))
        return convolve(self, other)

    monkeypatch.setattr(CountHistogram, "convolve", counting)
    return calls


# ---------------------------------------------------------------------------
# Hit / miss / invalidation accounting: one count per memo lookup
# ---------------------------------------------------------------------------
def test_steady_state_reads_hit_the_cache(convolutions):
    repo = ClientInfoRepository(8)
    _fill(repo)
    predictor = ResponseTimePredictor(repo, 2.0)
    first = predictor.candidate_cdfs([], ["r"], 0.150)
    assert _cache(predictor) == (0, 1, 0)
    assert predictor.candidate_cdfs([], ["r"], 0.150) == first
    predictor.response_pmfs("r")
    predictor.response_pmfs("r")
    predictor.response_cdfs("r", 0.200)  # the scalar methods look nothing up
    predictor.immediate_cdf("r", 0.200)
    assert _cache(predictor) == (2, 2, 0)
    assert len(convolutions) == 1  # the sampling pmfs' S ⊛ W, once


def test_new_measurement_invalidates(convolutions):
    repo = ClientInfoRepository(8)
    _fill(repo)
    predictor = ResponseTimePredictor(repo, 2.0)
    predictor.candidate_cdfs([], ["r"], 0.150)
    predictor.response_pmfs("r")
    repo.record_broadcast(PerfBroadcast(replica="r", ts=0.02, tq=0.001, tb=0.2))
    predictor.candidate_cdfs([], ["r"], 0.150)
    predictor.response_pmfs("r")
    # The window versions moved: both slots are stale and are replaced.
    assert _cache(predictor) == (0, 4, 2)
    assert len(convolutions) == 2


def test_gateway_delay_changes_the_value_without_rebuilding(convolutions):
    """G is a bin offset applied at evaluation time: nothing is built."""
    repo = ClientInfoRepository(8)
    _fill(repo)
    predictor = ResponseTimePredictor(repo, 2.0)
    before = predictor.response_cdfs("r", 0.120)
    repo.record_reply("r", tg=0.050, now=2.0)  # same windows, new G
    after = predictor.response_cdfs("r", 0.120)
    assert after[0] <= before[0] and after[1] < before[1]  # shifted right
    assert predictor.immediate_cdf("r", 0.020) == 0.0  # 10 + 2 + 50 ms > 20 ms
    assert _cache(predictor) == (0, 0, 0)
    assert convolutions == []
    fresh = ResponseTimePredictor(repo, 2.0)
    assert fresh.response_cdfs("r", 0.120) == after


def test_lazy_wait_sample_changes_the_value_without_rebuilding(convolutions):
    """A t_b sample that leaves t_s/t_q alone cannot exist on the wire (a
    broadcast carries all three), so move the window directly: F^D follows
    the new history at once."""
    repo = ClientInfoRepository(8)
    _fill(repo)
    predictor = ResponseTimePredictor(repo, 2.0)
    _, before = predictor.response_cdfs("r", 0.150)
    repo.stats_for("r").tb_window.record(1.5)
    _, after = predictor.response_cdfs("r", 0.150)
    assert after < before
    assert convolutions == []


def test_unchanged_gateway_delay_does_not_invalidate():
    repo = ClientInfoRepository(8)
    _fill(repo)
    predictor = ResponseTimePredictor(repo, 2.0)
    predictor.candidate_cdfs(["r"], [], 0.150)
    repo.record_reply("r", tg=0.001, now=2.0)  # identical latest_tg
    predictor.candidate_cdfs(["r"], [], 0.150)
    assert predictor.cache_hits.value == 1
    assert predictor.cache_invalidations.value == 0


def test_bootstrap_path_bypasses_cache():
    repo = ClientInfoRepository(8)
    predictor = ResponseTimePredictor(repo, 2.0)
    assert predictor.response_cdfs("unknown", 0.1) == (1.0, 1.0)
    assert predictor.candidate_cdfs(["u"], ["v"], 0.1) == ([1.0], [(1.0, 1.0)])
    assert predictor.response_pmfs("unknown") == (None, None)
    assert _cache(predictor) == (0, 0, 0)
    assert predictor.evaluations.value == 0


def test_lazy_interval_change_invalidates_deferred_pmf():
    """The Uniform(0, T_L) term follows the T_L in force: retuning it moves
    F^D at once and must not reuse a sampling pmf built for the old
    interval."""
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
    assert _cache(predictor) == (0, 2, 1)


def test_per_replica_isolation():
    repo = ClientInfoRepository(8)
    _fill(repo, "a")
    _fill(repo, "b")
    predictor = ResponseTimePredictor(repo, 2.0)
    predictor.response_pmfs("a")
    predictor.response_pmfs("b")
    repo.record_broadcast(PerfBroadcast(replica="a", ts=0.02, tq=0.001, tb=0.1))
    predictor.response_pmfs("a")
    predictor.response_pmfs("b")  # b untouched: still a hit
    assert _cache(predictor) == (1, 3, 1)


def test_response_pmfs_ride_the_same_entry(convolutions):
    """The sampling pmfs are materialized from the counts of S ⊛ W and
    kept until the windows, the gateway bins or the lazy-wait term
    change; a new G re-shifts the kept counts."""
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
# The value memo behind candidate_cdfs: a hit does no arithmetic
# ---------------------------------------------------------------------------
_PRIMARIES = [f"p{i}" for i in range(4)]
_SECONDARIES = [f"s{i}" for i in range(28)]


@pytest.fixture
def arithmetic(monkeypatch):
    """Records every evaluation as ``("_evaluate", replica)`` and every
    ``T_L`` resolution as ``("lazy_interval", repository)``."""
    calls = []
    evaluate = ResponseTimePredictor._evaluate
    lazy_interval = ClientInfoRepository.lazy_interval

    def evaluating(self, replica, *args):
        calls.append(("_evaluate", replica))
        return evaluate(self, replica, *args)

    def resolving(self, *args):
        calls.append(("lazy_interval", self))
        return lazy_interval(self, *args)

    monkeypatch.setattr(ResponseTimePredictor, "_evaluate", evaluating)
    monkeypatch.setattr(ClientInfoRepository, "lazy_interval", resolving)
    return calls


def _wide_read():
    """A 4 + 28 candidate set, every other secondary with ``t_b`` history,
    already read once at 150 ms."""
    repo = ClientInfoRepository(8)
    for i, name in enumerate(_PRIMARIES + _SECONDARIES):
        _fill(repo, name, tb=bool(i % 2))
    predictor = ResponseTimePredictor(repo, 2.0)
    first = predictor.candidate_cdfs(_PRIMARIES, _SECONDARIES, 0.150)
    return repo, predictor, first


def test_unchanged_candidates_cost_no_arithmetic(arithmetic):
    repo, predictor, first = _wide_read()
    assert [name for kind, name in arithmetic if kind == "_evaluate"] == (
        _PRIMARIES + _SECONDARIES
    )
    del arithmetic[:]
    assert predictor.candidate_cdfs(_PRIMARIES, _SECONDARIES, 0.150) == first
    assert arithmetic == [("lazy_interval", repo)]  # T_L resolved once per read
    assert predictor.evaluations.value == 64
    assert _cache(predictor) == (32, 32, 0)


def test_one_broadcast_recomputes_one_candidate(arithmetic):
    repo, predictor, first = _wide_read()
    repo.record_broadcast(PerfBroadcast(replica="s3", ts=0.2, tq=0.001, tb=None))
    del arithmetic[:]
    second = predictor.candidate_cdfs(_PRIMARIES, _SECONDARIES, 0.150)
    assert arithmetic == [("lazy_interval", repo), ("_evaluate", "s3")]
    changed = [i for i in range(28) if second[1][i] != first[1][i]]
    assert second[0] == first[0] and changed == [3]
    assert _cache(predictor) == (31, 33, 1)


def test_scalar_query_does_not_evict_the_read_slot(arithmetic):
    repo, predictor, first = _wide_read()
    predictor.response_cdfs("s1", 0.050)  # a retry budget at another deadline
    predictor.immediate_cdf("p0", 0.050)
    del arithmetic[:]
    assert predictor.candidate_cdfs(_PRIMARIES, _SECONDARIES, 0.150) == first
    assert arithmetic == [("lazy_interval", repo)]


# ---------------------------------------------------------------------------
# Exact equivalence with the scalar methods
# ---------------------------------------------------------------------------
def test_cached_results_equal_uncached_exactly():
    repo = ClientInfoRepository(window_size=8)
    _fill(repo, "p")
    _fill(repo, "r")
    memoised = ResponseTimePredictor(repo, 2.0)
    scalar = ResponseTimePredictor(repo, 2.0)
    for deadline in (0.05, 0.113, 0.113, 0.150, 0.8):  # repeat -> memo hits
        assert memoised.candidate_cdfs(["p"], ["r"], deadline) == (
            [scalar.immediate_cdf("p", deadline)],
            [scalar.response_cdfs("r", deadline)],
        )
    assert memoised.cache_hits.value == 2


_NAMES = ("a", "b", "c")
_DEADLINES = (0.150, 0.9)  # the two per-read deadlines the fused calls use
_name = st.sampled_from(_NAMES)
_interval = st.sampled_from((0.4, 2.0, 3.0))


def _near(grid, high):
    """Mostly values that put S + W + G (+ U) within a bin or two of one of
    the two deadlines, so that a change to one input moves a value;
    sometimes anything up to ``high``."""
    on_grid = st.sampled_from(grid)
    return st.one_of(on_grid, on_grid, on_grid, st.floats(min_value=0.0, max_value=high))


_ts = _near((0.144, 0.146, 0.148), 0.3)
_tq = _near((0.0, 0.001, 0.002), 0.05)
_tg = _near((0.0, 0.002, 0.004), 0.01)
_tb = _near((0.748, 0.750, 0.752), 1.5)

_broadcast = st.tuples(st.just("broadcast"), _name, _ts, _tq, st.one_of(st.none(), _tb))
# One read: each name is a primary, a secondary or absent, so the same name
# is asked in both roles across reads (failover promotion).
_read = st.tuples(
    st.just("read"),
    st.sampled_from(_DEADLINES),
    st.tuples(*[st.sampled_from("pss-")] * len(_NAMES)),
)
_write = st.one_of(
    _broadcast,
    st.tuples(st.just("reply"), _name, _tg),
    st.tuples(st.just("tb"), _name, _tb),
    st.tuples(st.just("announce"), st.one_of(st.none(), _interval)),
    st.tuples(st.just("configure"), _interval),
    st.tuples(st.just("query"), _name, st.floats(min_value=0.0, max_value=2.0)),
)
# Some history first, then rounds of up to two writes and a read: a stale
# slot shows as read, write, read.
_ops = st.builds(
    lambda history, rounds: history + [op for ops in rounds for op in ops],
    st.lists(_broadcast, min_size=2, max_size=4),
    st.lists(
        st.builds(lambda writes, read: writes + [read], st.lists(_write, max_size=2), _read),
        min_size=2,
        max_size=25,
    ),
)


def _stale_slot_examples(test):
    """Read, move one thing an evaluation reads, read again — one explicit
    example per component of the memo's key, whatever the search finds."""
    history = ("broadcast", "a", 0.146, 0.002, None)  # S + W + G = 149 ms
    as_primary = ("p", "-", "p")  # "c" has no history: never memoised
    as_secondary = ("s", "-", "s")
    for first, writes, second in (
        (("read", 0.150, as_primary), [("reply", "a", 0.004)], ("read", 0.150, as_primary)),
        (("read", 0.150, as_primary), [history], ("read", 0.150, as_primary)),
        (("read", 0.9, as_secondary), [("tb", "a", 0.750)], ("read", 0.9, as_secondary)),
        (("read", 0.9, as_secondary), [("announce", 0.4)], ("read", 0.9, as_secondary)),
        (("read", 0.9, as_secondary), [("configure", 0.4)], ("read", 0.9, as_secondary)),
        (("read", 0.9, as_primary), [], ("read", 0.9, as_secondary)),
        (("read", 0.150, as_secondary), [], ("read", 0.9, as_secondary)),
        (("read", 0.150, as_secondary), [("query", "a", 0.050)], ("read", 0.150, as_secondary)),
    ):
        test = example(ops=[history, first, *writes, second])(test)
    return test


@_stale_slot_examples
@given(ops=_ops)
@settings(max_examples=400, deadline=None)
def test_cache_equivalence_property(ops):
    """Across arbitrary interleavings of everything an evaluation reads —
    measurements, replies, ``t_b`` samples, announced and configured
    ``T_L``, role changes — with scalar queries and repeated fused reads in
    between: ``candidate_cdfs``' values are *exactly* the scalar
    ``immediate_cdf``/``response_cdfs`` values on the same repository, and
    it counts the evaluations the scalar loop makes."""
    repo = ClientInfoRepository(window_size=8)
    memoised = ResponseTimePredictor(repo, 2.0)
    scalar = ResponseTimePredictor(repo, 2.0)
    now = 1.0
    for op in ops:
        kind = op[0]
        if kind == "broadcast":
            _, name, ts, tq, tb = op
            repo.record_broadcast(PerfBroadcast(replica=name, ts=ts, tq=tq, tb=tb))
        elif kind == "reply":
            now += 1.0
            repo.record_reply(op[1], tg=op[2], now=now)
        elif kind == "tb":
            repo.stats_for(op[1]).tb_window.record(op[2])
        elif kind == "announce":
            staleness = StalenessInfo(n_u=1, t_u=0.5, n_l=0, t_l=0.1, lazy_interval=op[1])
            repo.record_staleness(
                PerfBroadcast(replica="a", ts=0.01, tq=0.0, tb=None, staleness=staleness),
                now,
            )
        elif kind == "configure":
            for predictor in (memoised, scalar):
                predictor.lazy_update_interval = op[1]
        elif kind == "query":
            _, name, deadline = op
            expected = scalar.response_cdfs(name, deadline)
            assert memoised.response_cdfs(name, deadline) == expected
            assert memoised.immediate_cdf(name, deadline) == expected[0]
            scalar.immediate_cdf(name, deadline)
        else:
            _, deadline, roles = op
            primaries = [n for n, role in zip(_NAMES, roles) if role == "p"]
            secondaries = [n for n, role in zip(_NAMES, roles) if role == "s"]
            assert memoised.candidate_cdfs(primaries, secondaries, deadline) == (
                [scalar.immediate_cdf(n, deadline) for n in primaries],
                [scalar.response_cdfs(n, deadline) for n in secondaries],
            )
        assert memoised.evaluations.value == scalar.evaluations.value


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
