"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.requests import Request
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.tracing import Trace


#: Registry series that count work rather than record what happened: how
#: often the predictor evaluated and looked up its count cache.  A change
#: that only evaluates less moves these and nothing else, so each pinned
#: campaign cell also pins its digest without them (``work_free`` goldens),
#: recorded at the commit before the last such change.
WORK_SERIES = frozenset({
    "predictor_evaluations",
    "predictor_cache_hits",
    "predictor_cache_misses",
    "predictor_cache_invalidations",
})


@pytest.fixture(scope="session")
def work_series() -> frozenset:
    return WORK_SERIES


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def trace() -> Trace:
    return Trace(enabled=True)


@pytest.fixture
def network(sim: Simulator, rng: RngRegistry, trace: Trace) -> Network:
    """A deterministic network: every link exactly 1 ms one-way."""
    return Network(sim, rng, FixedLatency(0.001), trace=trace)


class Recorder:
    """Collects callback invocations for assertions."""

    def __init__(self) -> None:
        self.calls: list = []

    def __call__(self, *args) -> None:
        self.calls.append(args[0] if len(args) == 1 else args)

    def __len__(self) -> int:
        return len(self.calls)

    @property
    def last(self):
        return self.calls[-1]


@pytest.fixture
def recorder() -> Recorder:
    return Recorder()


def _broadcast_stamps(client) -> None:
    gsend = client.gsend

    def unnamed(group, member, payload, size_bytes=256):
        if isinstance(payload, Request) and payload.targets is not None:
            payload = dataclasses.replace(payload, targets=None)
        gsend(group, member, payload, size_bytes)

    client.gsend = unnamed


@pytest.fixture(scope="session")
def broadcast_stamps():
    """``broadcast_stamps(client)`` makes a client handler the paper's client:
    its reads travel with ``targets = None``, so the sequencer broadcasts
    their stamp to every primary and secondary.  The twin a named-stamp run
    is compared against."""
    return _broadcast_stamps
