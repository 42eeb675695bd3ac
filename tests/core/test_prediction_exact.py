"""The predictor's CDFs are exact counts (ISSUE 15).

``F^I(d)`` and ``F^D(d)`` are evaluated from integer window histograms,
so each must *equal* the float nearest ``#{s + w + g (+ u) <= k} / (n_S *
n_W (* n_U))`` counted by brute force over the quantised samples.  The
pmf chain the predictor used to build per read (``from_histogram ->
convolve -> shift -> convolve -> cdf``) stays here as the reference: it
computes the same numbers plus rounding noise, so the two agree within
1e-12 and no closer.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prediction import ResponseTimePredictor
from repro.core.repository import ClientInfoRepository
from repro.core.requests import PerfBroadcast
from repro.stats.pmf import DiscretePmf
from repro.stats.sliding_window import quantize_bin

Q = 1e-3


def _bins(window):
    return np.array([quantize_bin(v, Q) for v in window], dtype=np.int64)


def _brute_force(stats, tg, lazy_interval, deadline):
    """Count the sample combinations that meet the deadline, one by one."""
    sums = np.add.outer(_bins(stats.ts_window), _bins(stats.tq_window)).ravel()
    sums += int(round(tg / Q))
    if stats.tb_window:
        waits = _bins(stats.tb_window)
    else:
        waits = np.arange(max(1, int(round(lazy_interval / Q))))
    k = math.floor(deadline / Q + 1e-9)
    # DiscretePmf.cdf's rule, kept: a deadline below the support's float
    # value is 0 even when it shares the support's first bin.
    immediate = deferred = 0.0
    if deadline >= int(sums.min()) * Q:
        immediate = int((sums <= k).sum()) / sums.size
    if deadline >= int(sums.min() + waits.min()) * Q:
        met = int((np.add.outer(sums, waits) <= k).sum())
        deferred = met / (sums.size * waits.size)
    return immediate, deferred


def _pmf_chain(stats, tg, lazy_interval, deadline):
    """The retained reference: what the predictor built before ISSUE 15."""
    service = DiscretePmf.from_histogram(Q, *stats.ts_window.histogram(Q))
    queuing = DiscretePmf.from_histogram(Q, *stats.tq_window.histogram(Q))
    base = service.convolve(queuing).shift(tg)
    if stats.tb_window:
        lazy_wait = DiscretePmf.from_histogram(Q, *stats.tb_window.histogram(Q))
    else:
        bins = max(1, int(round(lazy_interval / Q)))
        lazy_wait = DiscretePmf(Q, 0, np.full(bins, 1.0 / bins))
    return base.cdf(deadline), base.convolve(lazy_wait).cdf(deadline)


_durations = st.floats(min_value=0.0, max_value=0.3)
_deadlines = st.one_of(
    st.floats(min_value=0.0, max_value=3.0),
    st.integers(min_value=0, max_value=2500).map(lambda k: k * Q),  # on a bin
    st.integers(min_value=1, max_value=400).map(lambda k: k * Q - 1e-13),
)


@given(
    size=st.integers(min_value=1, max_value=40),
    ts=st.lists(_durations, min_size=1, max_size=60),
    tq=st.lists(st.floats(min_value=0.0, max_value=0.05), min_size=1, max_size=60),
    tb=st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=60),
    tg=st.floats(min_value=0.0, max_value=0.02),
    lazy_interval=st.sampled_from([0.0004, 0.05, 0.4, 2.0]),
    deadlines=st.lists(_deadlines, min_size=1, max_size=8),
)
@settings(max_examples=120, deadline=None)
def test_cdfs_equal_the_brute_force_count(
    size, ts, tq, tb, tg, lazy_interval, deadlines
):
    repo = ClientInfoRepository(window_size=size)
    stats = repo.stats_for("r")
    stats.ts_window.extend(ts)  # longer than ``size``: evictions happen
    stats.tq_window.extend(tq)
    stats.tb_window.extend(tb)  # empty -> the Uniform(0, T_L) fallback
    repo.record_reply("r", tg=tg, now=1.0)
    cached = ResponseTimePredictor(repo, lazy_interval)
    fresh = ResponseTimePredictor(repo, lazy_interval, use_cache=False)
    # Below the support, inside it, and above it whatever was drawn.
    deadlines = deadlines + [0.0, 0.3 + 0.05 + 0.02 + 2.0 + Q]
    for deadline in deadlines:
        exact = _brute_force(stats, tg, lazy_interval, deadline)
        assert cached.response_cdfs("r", deadline) == exact
        assert cached.immediate_cdf("r", deadline) == exact[0]
        assert fresh.response_cdfs("r", deadline) == exact
        chain = _pmf_chain(stats, tg, lazy_interval, deadline)
        assert exact == pytest.approx(chain, abs=1e-12)
    assert cached.response_cdfs("r", deadlines[-1]) == (1.0, 1.0)


def test_ninety_of_a_hundred_pairs_is_exactly_point_nine():
    """Fails before ISSUE 15: the pmf chain returned 0.8999999999999999,
    which fails Algorithm 1's ``P_K(d) >= P_c(d)`` at ``P_c = 0.9`` and
    selects a replica the exact value does not call for."""
    repo = ClientInfoRepository(window_size=10)
    for i in range(10):
        repo.record_broadcast(
            PerfBroadcast(
                replica="r", ts=0.050 + 0.001 * i, tq=0.010 + 0.001 * i, tb=None
            )
        )
    repo.record_reply("r", tg=0.001, now=1.0)
    predictor = ResponseTimePredictor(repo, 2.0)
    # s + w + g <= 75 ms fails for exactly the 10 pairs with i + j >= 15.
    assert predictor.immediate_cdf("r", 0.075) == 0.9
    # ... and against Uniform(0, 2 s): 610 of the 100 * 2000 triples.
    assert predictor.response_cdfs("r", 0.075) == (0.9, 610 / 200_000)


def test_quantum_mismatch_bins_raw_samples_into_the_same_counts():
    """A predictor on another grid than the repository's windows counts the
    raw samples on its own grid and takes the same route."""
    repo = ClientInfoRepository(window_size=10, quantum=Q)
    for i in range(10):
        repo.record_broadcast(
            PerfBroadcast(
                replica="r", ts=0.050 + 0.001 * i, tq=0.010 + 0.001 * i, tb=None
            )
        )
    repo.record_reply("r", tg=0.001, now=1.0)
    coarse = ResponseTimePredictor(repo, 2.0, quantum=2e-3)
    # The oracle bins each raw sample on the 2 ms grid (round-half-even).
    s = [round((0.050 + 0.001 * i) / 2e-3) for i in range(10)]
    w = [round((0.010 + 0.001 * i) / 2e-3) for i in range(10)]
    g = round(0.001 / 2e-3)
    k = math.floor(0.075 / 2e-3 + 1e-9)
    met = sum(1 for a in s for b in w if a + b + g <= k)
    assert coarse.immediate_cdf("r", 0.075) == met / 100
