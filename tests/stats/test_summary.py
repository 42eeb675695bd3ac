"""Unit tests for the percentile helper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.summary import percentile


def test_percentile_basic():
    values = [1, 2, 3, 4, 5]
    assert percentile(values, 0) == 1
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5
    assert percentile(values, 25) == 2


def test_percentile_interpolates():
    assert percentile([0.0, 1.0], 50) == pytest.approx(0.5)


def test_percentile_single_value():
    assert percentile([7.0], 90) == 7.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@given(
    values=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
    q=st.floats(min_value=0, max_value=100),
)
@settings(max_examples=60)
def test_percentile_within_range_property(values, q):
    p = percentile(values, q)
    assert min(values) <= p <= max(values)
