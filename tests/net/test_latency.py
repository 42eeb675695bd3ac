"""Unit tests for latency models."""

import pytest

from repro.net.latency import FixedLatency, LanLatency, LatencyModel
from repro.net.message import Message
from repro.sim.rng import Constant, RngRegistry


@pytest.fixture
def stream():
    return RngRegistry(5).stream("latency")


def _msg(size=256):
    return Message("a", "b", None, 0.0, size_bytes=size)


def test_fixed_latency_is_deterministic(stream):
    model = FixedLatency(0.01)
    assert model.delay(_msg(), stream) == 0.01
    assert model.delay(_msg(100000), stream) == 0.01  # no bandwidth term


def test_bandwidth_term_scales_with_size(stream):
    model = LatencyModel(Constant(0.001), bandwidth_bytes_per_s=1e6)
    small = model.delay(_msg(1000), stream)
    large = model.delay(_msg(100000), stream)
    assert small == pytest.approx(0.001 + 0.001)
    assert large == pytest.approx(0.001 + 0.1)


def test_negative_bandwidth_rejected():
    with pytest.raises(ValueError):
        LatencyModel(Constant(0.001), bandwidth_bytes_per_s=-1)


def test_mean_delay_includes_bandwidth():
    model = LatencyModel(Constant(0.002), bandwidth_bytes_per_s=1e6)
    assert model.mean_delay(size_bytes=2000) == pytest.approx(0.004)


def test_lan_latency_sub_millisecond_scale(stream):
    model = LanLatency()
    samples = [model.delay(_msg(), stream) for _ in range(300)]
    assert all(0 < s < 0.005 for s in samples)
    assert sum(samples) / len(samples) < 0.001


def test_delay_never_negative(stream):
    model = LatencyModel(Constant(0.0))
    assert model.delay(_msg(), stream) >= 0.0
