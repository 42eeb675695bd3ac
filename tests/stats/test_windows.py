"""Unit tests for sliding windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.pmf import DiscretePmf
from repro.stats.sliding_window import PairWindow, SlidingWindow, quantize_bin

Q = 1e-3


# ---------------------------------------------------------------------------
# SlidingWindow
# ---------------------------------------------------------------------------
def test_records_in_order():
    window = SlidingWindow(5)
    window.extend([1.0, 2.0, 3.0])
    assert window.samples() == [1.0, 2.0, 3.0]


def test_evicts_oldest_when_full():
    window = SlidingWindow(3)
    window.extend([1, 2, 3, 4, 5])
    assert window.samples() == [3.0, 4.0, 5.0]
    assert window.total_recorded == 5
    assert window.full


def test_len_bool_iter():
    window = SlidingWindow(3)
    assert not window and len(window) == 0
    window.record(1.0)
    assert window and list(window) == [1.0]


def test_mean():
    window = SlidingWindow(4)
    window.extend([1.0, 3.0])
    assert window.mean() == 2.0
    with pytest.raises(ValueError):
        SlidingWindow(2).mean()


def test_clear():
    window = SlidingWindow(2)
    window.record(1.0)
    window.clear()
    assert len(window) == 0


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        SlidingWindow(0)


@given(
    size=st.integers(min_value=1, max_value=20),
    values=st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=100),
)
@settings(max_examples=60)
def test_window_keeps_most_recent_property(size, values):
    window = SlidingWindow(size)
    window.extend(values)
    assert window.samples() == [float(v) for v in values[-size:]]


# ---------------------------------------------------------------------------
# Versioning + incremental bins (the predictor's counting substrate)
# ---------------------------------------------------------------------------
def test_version_increments_on_record_and_clear():
    window = SlidingWindow(2)
    assert window.version == 0
    window.record(1.0)
    window.record(2.0)
    window.record(3.0)  # eviction still bumps: contents changed
    assert window.version == 3
    window.clear()
    assert window.version == 4


def test_histogram_tracks_contents_incrementally():
    window = SlidingWindow(3, quantum=Q)
    window.extend([0.001, 0.001, 0.002, 0.003])  # first 1 ms sample evicted
    offset, counts = window.histogram()
    assert offset == 1
    assert counts.tolist() == [1.0, 1.0, 1.0]


def test_histogram_collapses_bins_on_eviction():
    window = SlidingWindow(2, quantum=Q)
    window.extend([0.005, 0.001, 0.001])  # the 5 ms bin must disappear
    offset, counts = window.histogram()
    assert offset == 1
    assert counts.tolist() == [2.0]


def test_histogram_of_an_empty_window_is_none():
    window = SlidingWindow(3, quantum=Q)
    assert window.histogram() is None
    window.record(0.001)
    assert window.histogram() is not None
    window.clear()
    assert window.histogram() is None


def test_histogram_clamps_negative_samples():
    window = SlidingWindow(3, quantum=Q)
    window.extend([-0.5, 0.001])
    offset, counts = window.histogram()
    assert offset == 0
    assert counts.tolist() == [1.0, 1.0]


def test_quantize_bin_matches_numpy_rint():
    for value in (-1.0, 0.0, 0.0005, 0.0015, 0.0025, 0.9987, 123.456):
        expected = int(np.rint(max(0.0, value) / Q))
        assert quantize_bin(value, Q) == expected


@given(
    size=st.integers(min_value=1, max_value=10),
    values=st.lists(
        st.floats(min_value=-1.0, max_value=5.0), min_size=1, max_size=60
    ),
)
@settings(max_examples=100)
def test_histogram_pmf_identical_to_from_samples(size, values):
    """The incremental histogram must reproduce §5.2's relative-frequency
    pmf bit for bit across arbitrary record/evict interleavings."""
    window = SlidingWindow(size, quantum=Q)
    window.extend(values)
    offset, counts = window.histogram()
    incremental = DiscretePmf.from_histogram(Q, offset, counts)
    fresh = DiscretePmf.from_samples(window.samples(), Q)
    assert incremental.offset == fresh.offset
    assert np.array_equal(incremental.mass, fresh.mass)


_window_ops = st.lists(
    st.one_of(
        st.floats(min_value=-0.01, max_value=0.2),  # record (evicts once full)
        st.just("clear"),
    ),
    max_size=80,
)


@given(size=st.integers(min_value=1, max_value=12), ops=_window_ops)
@settings(max_examples=150)
def test_sorted_bins_follow_record_evict_and_clear(size, ops):
    """``sorted_bins`` is the window's bin multiset in ascending order after
    every record, eviction and clear, and agrees with ``histogram()``."""
    window = SlidingWindow(size, quantum=Q)
    for op in ops:
        if op == "clear":
            window.clear()
        else:
            window.record(op)
        expected = sorted(quantize_bin(v, Q) for v in window)
        assert window.sorted_bins == expected
        histogram = window.histogram()
        if not expected:
            assert histogram is None and window.bin_counts == {}
            continue
        offset, counts = histogram
        assert np.repeat(np.arange(offset, offset + counts.size), counts).tolist() == (
            expected
        )
        assert sum(window.bin_counts.values()) == len(expected)


# ---------------------------------------------------------------------------
# PairWindow (update-rate estimation, §5.4.1)
# ---------------------------------------------------------------------------
def test_pair_window_rate():
    window = PairWindow(5)
    window.record(4, 2.0)
    window.record(2, 1.0)
    assert window.rate() == pytest.approx(2.0)


def test_pair_window_evicts():
    window = PairWindow(2)
    window.record(100, 1.0)
    window.record(2, 1.0)
    window.record(2, 1.0)
    assert window.rate() == pytest.approx(2.0)
    assert len(window) == 2


def test_pair_window_default_without_time():
    assert PairWindow(3).rate(default=7.0) == 7.0


def test_pair_window_validation():
    with pytest.raises(ValueError):
        PairWindow(0)
    window = PairWindow(2)
    with pytest.raises(ValueError):
        window.record(-1, 1.0)
    with pytest.raises(ValueError):
        window.record(1, -1.0)


def test_pair_window_pairs_snapshot():
    window = PairWindow(3)
    window.record(1, 0.5)
    assert window.pairs() == [(1, 0.5)]


def test_pair_window_version_increments():
    window = PairWindow(2)
    assert window.version == 0
    window.record(1, 1.0)
    window.record(1, 1.0)
    window.record(1, 1.0)  # eviction
    assert window.version == 3


def test_pair_window_rate_exact_zero_after_zero_durations():
    window = PairWindow(2)
    window.record(3, 0.0)
    window.record(4, 0.0)
    window.record(5, 0.0)
    assert window.rate(default=9.0) == 9.0


@given(
    size=st.integers(min_value=1, max_value=8),
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            # Zero or >= 1 ms: realistic durations, so incremental
            # add/subtract cannot hit catastrophic cancellation.
            st.one_of(
                st.just(0.0), st.floats(min_value=1e-3, max_value=1e4)
            ),
        ),
        max_size=60,
    ),
)
@settings(max_examples=80)
def test_pair_window_running_sums_match_recompute(size, pairs):
    """O(1) rate() must agree with re-summing the visible window."""
    window = PairWindow(size)
    for count, duration in pairs:
        window.record(count, duration)
    visible = window.pairs()
    total_time = sum(t for _, t in visible)
    if total_time <= 0:
        assert window.rate(default=-1.0) == -1.0
    else:
        expected = sum(c for c, _ in visible) / total_time
        assert window.rate() == pytest.approx(expected, rel=1e-9, abs=1e-12)
