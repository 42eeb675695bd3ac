"""Event-driven simulation kernel.

A :class:`Simulator` owns a virtual clock and a binary heap of scheduled
events.  Everything else in the reproduction — network message delivery,
group-communication timeouts, lazy-update timers, client request loops —
is expressed as events on one simulator instance, which makes whole
experiments deterministic and fast (no real sleeping, no threads).

The kernel is deliberately small: events are ``(time, priority, seq)``-ordered
callbacks.  Richer abstractions (generator processes, signals) live in
:mod:`repro.sim.process` and are built on top of this scheduler.

Because every simulated experiment funnels through :meth:`Simulator.run`,
the kernel keeps the per-event path short:

* the heap holds ``(time, priority, seq, event)`` tuples, so ``heapq``
  orders entries with C tuple comparison and never calls back into Python
  (``seq`` is unique, so the comparison never reaches the event);
* cancelled events are counted as *tombstones* and the heap is compacted
  once they dominate, so timer-heavy protocols (deadline timers that are
  almost always cancelled) never pay heap-log cost for dead entries and
  the heap cannot grow without bound between pops;
* the pop loop binds its hot attributes to locals and skips tombstones
  without re-entering the heap API.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

# Compaction triggers when tombstones exceed this count AND this fraction
# of the heap; the count floor keeps tiny heaps from compacting constantly.
_COMPACT_MIN_TOMBSTONES = 64
_COMPACT_RATIO = 0.5


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and may be cancelled before they fire.
    Ordering is by ``(time, priority, seq)``: ties in time are broken first
    by an explicit priority (lower fires earlier) and then by scheduling
    order, which keeps runs reproducible.  The ordering key lives in the
    simulator's heap entry, not on the event.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple,
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim  # None once the event has left the heap by firing

    def cancel(self) -> None:
        """Prevent the event from firing.

        Safe to call more than once, and after the event has fired: only
        an event still waiting in the heap becomes a tombstone.
        """
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.6f} {name} {state}>"


class Simulator:
    """Deterministic discrete-event simulator with a virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, print, "fires at t=1.5")
        sim.run(until=10.0)

    The clock unit is seconds (floats).  ``run`` processes events in
    timestamp order until the heap empties, a time bound is reached, or
    :meth:`stop` is called from inside a callback.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._processed = 0
        self._tombstones = 0
        self._compactions = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far (for tracing/tests)."""
        return self._processed

    @property
    def tombstones(self) -> int:
        """Cancelled events still sitting in the heap (for tests/metrics)."""
        return self._tombstones

    @property
    def compactions(self) -> int:
        """Number of tombstone compaction passes run so far."""
        return self._compactions

    def heap_size(self) -> int:
        """Physical heap length, tombstones included (for tests/metrics)."""
        return len(self._heap)

    def pending(self) -> int:
        """Number of scheduled, not-yet-cancelled events."""
        return len(self._heap) - self._tombstones

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if not time >= self._now:
            raise self._bad_time(time)
        event = Event(time, callback, args, self)
        heapq.heappush(self._heap, (time, priority, next(self._seq), event))
        return event

    def schedule_batch(
        self,
        times,
        callback: Callable[..., Any],
        args_list: Optional[list[tuple]] = None,
        priority: int = 0,
    ) -> list[Event]:
        """Bulk-schedule one callback at many absolute times.

        The batched counterpart of :meth:`schedule_at` for callers that
        produce whole arrival vectors at once (the aggregated client
        tier).  Semantics match ``[schedule_at(t, callback, *args) for t
        in times]`` exactly — same validation, same ``(time, priority,
        seq)`` ordering with seq assigned in input order — but the heap is
        grown with one ``extend`` + ``heapify`` (O(n + m)) instead of m
        pushes (O(m log n)) once the batch is large relative to the heap.

        ``args_list``, when given, supplies one args tuple per time;
        otherwise every event fires ``callback()``.
        """
        times = [float(t) for t in times]
        if args_list is None:
            args_list = [()] * len(times)
        elif len(args_list) != len(times):
            raise SimulationError(
                f"args_list length {len(args_list)} != times length {len(times)}"
            )
        now = self._now
        for t in times:
            if not t >= now:
                raise self._bad_time(t)
        seq = self._seq
        entries = [
            (t, priority, next(seq), Event(t, callback, args, self))
            for t, args in zip(times, args_list)
        ]
        heap = self._heap
        if len(entries) * 8 >= len(heap):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            for entry in entries:
                heapq.heappush(heap, entry)
        return [entry[3] for entry in entries]

    def _bad_time(self, time: float) -> SimulationError:
        if math.isnan(time):
            return SimulationError("cannot schedule at NaN time")
        return SimulationError(
            f"cannot schedule in the past (now={self._now}, requested={time})"
        )

    # ------------------------------------------------------------------
    # Tombstone accounting
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; compacts when tombstones dominate."""
        self._tombstones += 1
        if (
            self._tombstones >= _COMPACT_MIN_TOMBSTONES
            and self._tombstones >= _COMPACT_RATIO * len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from the heap and re-heapify (O(n)).

        In place, so the list :meth:`run` iterates over stays the heap.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._tombstones = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events in order until ``until`` (or until idle).

        Returns the virtual time at which the run stopped.  When ``until``
        is given, the clock is advanced to exactly ``until`` even if the
        last event fired earlier, so successive bounded runs compose.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        try:
            while heap and not self._stopped:
                if heap[0][0] > horizon:
                    break
                time, _, _, event = heappop(heap)
                if event.cancelled:
                    self._tombstones -= 1
                    continue
                event._sim = None
                self._now = time
                self._processed += 1
                event.callback(*event.args)
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def step(self) -> bool:
        """Process a single event.  Returns False when the heap is empty."""
        heap = self._heap
        while heap:
            time, _, _, event = heapq.heappop(heap)
            if event.cancelled:
                self._tombstones -= 1
                continue
            event._sim = None
            self._now = time
            self._processed += 1
            event.callback(*event.args)
            return True
        return False

    def stop(self) -> None:
        """Stop the current :meth:`run` after the active callback returns."""
        self._stopped = True
