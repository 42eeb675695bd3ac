"""Unit tests for logical clocks and version stamps."""

import pytest

from repro.sim.clock import Version, ZERO_VERSION


def test_versions_order_by_sequence():
    assert Version(1) < Version(2)
    assert Version(2, "a") < Version(2, "b")  # author is tie-break only


def test_version_next():
    v = Version(4, "x").next("y")
    assert v.sequence == 5
    assert v.author == "y"


def test_negative_version_rejected():
    with pytest.raises(ValueError):
        Version(-1)


def test_zero_version_is_least():
    assert ZERO_VERSION <= Version(0)
    assert ZERO_VERSION < Version(1)


def test_versions_hashable_and_frozen():
    v = Version(1, "a")
    assert v in {Version(1, "a")}
    with pytest.raises(AttributeError):
        v.sequence = 2  # type: ignore[misc]
