"""Unit tests for latency models, timed through the fabric."""

import pytest

from repro.net.latency import FixedLatency, LanLatency, LatencyModel
from repro.net.network import Endpoint, Network
from repro.sim.kernel import Simulator
from repro.sim.rng import Constant, RngRegistry


class Sink(Endpoint):
    def __init__(self, name):
        super().__init__(name)
        self.delays = []

    def deliver(self, message):
        self.delays.append(self.now - message.sent_at)


def delays(model, sizes):
    """The delay of one ``a -> b`` message per size, on a fabric timed by
    ``model``."""
    net = Network(Simulator(), RngRegistry(5), model)
    a, b = Sink("a"), Sink("b")
    net.attach(a)
    net.attach(b)
    for size in sizes:
        a.send("b", None, size_bytes=size)
    net.sim.run()
    return b.delays


def test_fixed_latency_is_deterministic():
    # No bandwidth term.
    assert delays(FixedLatency(0.01), [256, 100000]) == [0.01, 0.01]


def test_bandwidth_term_scales_with_size():
    model = LatencyModel(Constant(0.001), bandwidth_bytes_per_s=1e6)
    small, large = delays(model, [1000, 100000])
    assert small == pytest.approx(0.001 + 0.001)
    assert large == pytest.approx(0.001 + 0.1)


def test_negative_bandwidth_rejected():
    with pytest.raises(ValueError):
        LatencyModel(Constant(0.001), bandwidth_bytes_per_s=-1)


def test_mean_delay_includes_bandwidth():
    model = LatencyModel(Constant(0.002), bandwidth_bytes_per_s=1e6)
    assert model.mean_delay(size_bytes=2000) == pytest.approx(0.004)


def test_lan_latency_sub_millisecond_scale():
    samples = delays(LanLatency(), [256] * 300)
    assert all(0 < s < 0.005 for s in samples)
    assert sum(samples) / len(samples) < 0.001


def test_delay_never_negative():
    assert delays(LatencyModel(Constant(0.0)), [256]) == [0.0]
