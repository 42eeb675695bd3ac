"""Unit tests for generator-based processes."""

import pytest

from repro.sim.kernel import SimulationError
from repro.sim.process import Process, Signal, Timeout


def test_timeout_advances_virtual_time(sim):
    seen = []

    def proc():
        yield Timeout(1.5)
        seen.append(sim.now)

    Process(sim, proc())
    sim.run()
    assert seen == [1.5]


def test_sequential_timeouts_accumulate(sim):
    seen = []

    def proc():
        yield Timeout(1.0)
        seen.append(sim.now)
        yield Timeout(2.0)
        seen.append(sim.now)

    Process(sim, proc())
    sim.run()
    assert seen == [1.0, 3.0]


def test_timeout_value_is_delivered(sim):
    got = []

    def proc():
        got.append((yield Timeout(1.0, value="payload")))

    Process(sim, proc())
    sim.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


def test_process_result_captured(sim):
    def proc():
        yield Timeout(1.0)
        return 42

    p = Process(sim, proc())
    sim.run()
    assert p.result == 42
    assert not p.alive


def test_signal_wakes_all_waiters(sim):
    signal = Signal("test")
    woken = []

    def waiter(tag):
        value = yield signal
        woken.append((tag, value, sim.now))

    Process(sim, waiter("a"))
    Process(sim, waiter("b"))
    sim.schedule(2.0, signal.fire, "go")
    sim.run()
    assert sorted(woken) == [("a", "go", 2.0), ("b", "go", 2.0)]


def test_signal_fire_returns_waiter_count(sim):
    signal = Signal()

    def waiter():
        yield signal

    Process(sim, waiter())
    Process(sim, waiter())
    counts = []
    sim.schedule(1.0, lambda: counts.append(signal.fire()))
    sim.run()
    assert counts == [2]


def test_signal_refire_wakes_only_new_waiters(sim):
    signal = Signal()
    log = []

    def waiter(tag, delay):
        yield Timeout(delay)
        value = yield signal
        log.append((tag, value))

    Process(sim, waiter("early", 0.0))
    Process(sim, waiter("late", 3.0))
    sim.schedule(1.0, signal.fire, "first")
    sim.schedule(5.0, signal.fire, "second")
    sim.run()
    assert ("early", "first") in log
    assert ("late", "second") in log


def test_join_process_receives_result(sim):
    def child():
        yield Timeout(2.0)
        return "done"

    results = []

    def parent():
        result = yield Process(sim, child(), name="child")
        results.append((result, sim.now))

    Process(sim, parent())
    sim.run()
    assert results == [("done", 2.0)]


def test_join_already_finished_process(sim):
    def child():
        return "instant"
        yield  # pragma: no cover

    child_proc = Process(sim, child())
    results = []

    def parent():
        yield Timeout(5.0)
        result = yield child_proc
        results.append(result)

    Process(sim, parent())
    sim.run()
    assert results == ["instant"]


def test_unsupported_yield_raises(sim):
    def proc():
        yield "nonsense"

    Process(sim, proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_process_names_unique_by_default(sim):
    def proc():
        yield Timeout(0.0)

    a = Process(sim, proc())
    b = Process(sim, proc())
    assert a.name != b.name
