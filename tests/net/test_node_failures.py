"""Unit tests for hosts and the failure injector."""

import pytest

from repro.net.failures import FailureInjector, OverloadWindow
from repro.net.latency import FixedLatency
from repro.net.network import Endpoint, Network
from repro.net.node import Host


class Sink(Endpoint):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def deliver(self, message):
        self.received.append(message)


# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------
def test_host_scales_durations():
    host = Host("slow", speed_factor=3.0)
    assert host.scale(0.1) == pytest.approx(0.3)


def test_host_rejects_bad_args():
    with pytest.raises(ValueError):
        Host("", 1.0)
    with pytest.raises(ValueError):
        Host("x", 0.0)
    with pytest.raises(ValueError):
        Host("x", 1.0).scale(-1.0)


def test_overload_multiplies_base_factor():
    host = Host("h", speed_factor=2.0)
    host.begin_overload(3.0)
    assert host.speed_factor == pytest.approx(6.0)
    host.end_overload()
    assert host.speed_factor == pytest.approx(2.0)


def test_overload_factor_below_one_rejected():
    with pytest.raises(ValueError):
        Host("h").begin_overload(0.5)


# ---------------------------------------------------------------------------
# OverloadWindow
# ---------------------------------------------------------------------------
def test_overload_window_validation():
    with pytest.raises(ValueError):
        OverloadWindow(start=2.0, end=1.0, factor=2.0)
    with pytest.raises(ValueError):
        OverloadWindow(start=0.0, end=1.0, factor=0.9)
    with pytest.raises(ValueError):
        OverloadWindow(start=-1.0, end=1.0, factor=2.0)


# ---------------------------------------------------------------------------
# FailureInjector
# ---------------------------------------------------------------------------
@pytest.fixture
def net(sim, rng):
    network = Network(sim, rng, FixedLatency(0.001))
    a, b = Sink("a"), Sink("b")
    network.attach(a)
    network.attach(b)
    return network, a, b


def test_overload_injection_window(sim, net):
    network, _, _ = net
    host = Host("h")
    injector = FailureInjector(network)
    injector.overload(host, OverloadWindow(start=1.0, end=2.0, factor=4.0))
    checks = []
    sim.schedule(0.5, lambda: checks.append(host.speed_factor))
    sim.schedule(1.5, lambda: checks.append(host.speed_factor))
    sim.schedule(2.5, lambda: checks.append(host.speed_factor))
    sim.run()
    assert checks == [1.0, 4.0, 1.0]


def test_injector_log(sim, net):
    network, _, _ = net
    injector = FailureInjector(network)
    injector.overload(Host("h"), OverloadWindow(start=1.0, end=2.0, factor=4.0))
    assert any("overload h" in line for line in injector.injected)


# ---------------------------------------------------------------------------
# Idempotent crash / recover semantics
# ---------------------------------------------------------------------------
@pytest.fixture
def traced_net(sim, network, trace):
    a, b = Sink("a"), Sink("b")
    network.attach(a)
    network.attach(b)
    return network, trace


def test_crash_is_idempotent(traced_net):
    network, trace = traced_net
    assert network.crash("a") is True
    assert network.crash("a") is False  # already down: no-op
    assert trace.count("net.crash", "a") == 1


def test_recover_is_idempotent(traced_net):
    network, trace = traced_net
    assert network.recover("a") is False  # already up: no-op
    network.crash("a")
    assert network.recover("a") is True
    assert network.recover("a") is False
    assert trace.count("net.recover", "a") == 1


def test_crash_recover_unknown_endpoint_raises(traced_net):
    from repro.net.network import NetworkError

    network, _ = traced_net
    with pytest.raises(NetworkError):
        network.crash("ghost")
    with pytest.raises(NetworkError):
        network.recover("ghost")
