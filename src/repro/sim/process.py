"""Generator-based processes on top of the event kernel.

A process is a Python generator driven by the simulator.  It may yield:

* :class:`Timeout` — suspend for a virtual-time delay;
* :class:`Signal` — suspend until someone calls :meth:`Signal.fire`, which
  resumes every waiter with the fired value;
* another :class:`Process` — suspend until that process terminates, and
  receive its return value.

Example::

    def client(sim):
        yield Timeout(1.0)          # think time
        reply = yield request_sent  # wait for a signal
        return reply

    sim = Simulator()
    proc = Process(sim, client(sim))
    sim.run()
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.kernel import Event, SimulationError, Simulator


class Timeout:
    """Yieldable delay.  ``yield Timeout(0.5)`` suspends for half a second."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay!r}")
        self.delay = delay
        self.value = value


class Signal:
    """A broadcast condition variable for processes.

    Any number of processes may wait on one signal; :meth:`fire` resumes all
    of them with the fired value.  A signal may fire multiple times; each
    firing wakes only the processes waiting at that moment.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: list[Process] = []
        self.fire_count = 0
        self.last_value: Any = None

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters with ``value``; returns how many woke."""
        waiters, self._waiters = self._waiters, []
        self.fire_count += 1
        self.last_value = value
        for proc in waiters:
            proc._resume(value)
        return len(waiters)

    def _add_waiter(self, proc: "Process") -> None:
        self._waiters.append(proc)

    def _remove_waiter(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"


class Process:
    """Drives a generator as a simulation process.

    The process starts on the next simulator step (a zero-delay event), so
    constructing processes before ``sim.run()`` behaves intuitively.  When
    the generator returns, :attr:`result` holds its return value and any
    processes joined on it are resumed.
    """

    _ids = iter(range(1, 1 << 62))

    def __init__(self, sim: Simulator, generator: Generator, name: str = "") -> None:
        self.sim = sim
        self.pid = next(Process._ids)
        self.name = name or f"proc-{self.pid}"
        self._gen = generator
        self._alive = True
        self._pending_event: Optional[Event] = None
        self._waiting_on: Optional[Signal] = None
        self.result: Any = None
        self._done_signal = Signal(f"{self.name}.done")
        self._pending_event = sim.schedule(0.0, self._resume, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True until the generator returns or raises."""
        return self._alive

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def _resume(self, value: Any) -> None:
        if not self._alive:
            return
        self._detach()
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._wait_on(yielded)

    def _detach(self) -> None:
        """Drop whatever the process is currently waiting on."""
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if self._waiting_on is not None:
            self._waiting_on._remove_waiter(self)
            self._waiting_on = None

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            self._pending_event = self.sim.schedule(
                yielded.delay, self._resume, yielded.value
            )
        elif isinstance(yielded, Signal):
            self._waiting_on = yielded
            yielded._add_waiter(self)
        elif isinstance(yielded, Process):
            if yielded._alive:
                self._waiting_on = yielded._done_signal
                yielded._done_signal._add_waiter(self)
            else:
                self._pending_event = self.sim.schedule(
                    0.0, self._resume, yielded.result
                )
        else:
            raise SimulationError(
                f"process {self.name} yielded unsupported value {yielded!r}"
            )

    def _finish(self, result: Any) -> None:
        self._alive = False
        self.result = result
        self._done_signal.fire(result)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name} {state}>"
