"""Unit tests for the event kernel."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import SimulationError, Simulator


def test_initial_clock_is_zero():
    assert Simulator().now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_events_fire_in_time_order(sim, recorder):
    sim.schedule(3.0, recorder, "c")
    sim.schedule(1.0, recorder, "a")
    sim.schedule(2.0, recorder, "b")
    sim.run()
    assert recorder.calls == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order(sim, recorder):
    for label in "abcde":
        sim.schedule(1.0, recorder, label)
    sim.run()
    assert recorder.calls == list("abcde")


def test_priority_breaks_ties_before_seq(sim, recorder):
    sim.schedule(1.0, recorder, "late", priority=1)
    sim.schedule(1.0, recorder, "early", priority=0)
    sim.run()
    assert recorder.calls == ["early", "late"]


def test_clock_advances_to_event_time(sim, recorder):
    sim.schedule(2.5, lambda: recorder(sim.now))
    sim.run()
    assert recorder.calls == [2.5]


def test_run_until_bound_excludes_later_events(sim, recorder):
    sim.schedule(1.0, recorder, "in")
    sim.schedule(5.0, recorder, "out")
    sim.run(until=2.0)
    assert recorder.calls == ["in"]
    assert sim.now == 2.0


def test_run_until_advances_clock_even_without_events(sim):
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_bounded_runs_compose(sim, recorder):
    sim.schedule(1.0, recorder, "a")
    sim.schedule(3.0, recorder, "b")
    sim.run(until=2.0)
    sim.run(until=4.0)
    assert recorder.calls == ["a", "b"]
    assert sim.now == 4.0


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_scheduling_in_the_past_rejected(sim, recorder):
    sim.schedule(5.0, recorder, "x")
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, recorder, "y")


def test_nan_time_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule_at(math.nan, lambda: None)


def test_cancelled_event_does_not_fire(sim, recorder):
    event = sim.schedule(1.0, recorder, "x")
    event.cancel()
    sim.run()
    assert recorder.calls == []


def test_cancel_is_idempotent(sim, recorder):
    event = sim.schedule(1.0, recorder, "x")
    event.cancel()
    event.cancel()
    sim.run()
    assert recorder.calls == []


def test_cancel_from_within_callback(sim, recorder):
    later = sim.schedule(2.0, recorder, "later")
    sim.schedule(1.0, later.cancel)
    sim.run()
    assert recorder.calls == []


def test_events_scheduled_during_run_fire(sim, recorder):
    def outer():
        recorder("outer")
        sim.schedule(1.0, recorder, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert recorder.calls == ["outer", "inner"]
    assert sim.now == 2.0


def test_stop_halts_run(sim, recorder):
    sim.schedule(1.0, recorder, "a")
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, recorder, "b")
    stopped_at = sim.run()
    assert recorder.calls == ["a"]
    assert stopped_at == 2.0
    # A subsequent run resumes from where it stopped.
    sim.run()
    assert recorder.calls == ["a", "b"]


def test_step_processes_single_event(sim, recorder):
    sim.schedule(1.0, recorder, "a")
    sim.schedule(2.0, recorder, "b")
    assert sim.step() is True
    assert recorder.calls == ["a"]
    assert sim.step() is True
    assert sim.step() is False


def test_step_skips_cancelled_events(sim, recorder):
    event = sim.schedule(1.0, recorder, "a")
    sim.schedule(2.0, recorder, "b")
    event.cancel()
    assert sim.step() is True
    assert recorder.calls == ["b"]


def test_events_processed_counter(sim, recorder):
    for i in range(5):
        sim.schedule(float(i + 1), recorder, i)
    sim.run()
    assert sim.events_processed == 5


def test_pending_counts_uncancelled(sim):
    a = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    a.cancel()
    assert sim.pending() == 1


def test_reentrant_run_rejected(sim):
    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_callback_args_passed_through(sim, recorder):
    sim.schedule(1.0, recorder, 1, 2, 3)
    sim.run()
    assert recorder.calls == [(1, 2, 3)]


def test_zero_delay_event_fires_at_current_time(sim, recorder):
    sim.schedule(0.0, lambda: recorder(sim.now))
    sim.run()
    assert recorder.calls == [0.0]


# ---------------------------------------------------------------------------
# Tombstone compaction
# ---------------------------------------------------------------------------
def test_mass_cancel_does_not_grow_heap_unboundedly(sim):
    """Timer-heavy regression: cancelled events must not linger in the heap
    until popped (the pre-compaction kernel kept every tombstone)."""
    total = 20_000
    for i in range(total):
        event = sim.schedule(1.0 + i * 1e-6, lambda: None)
        event.cancel()
    assert sim.compactions > 0
    assert sim.heap_size() < total // 4
    assert sim.pending() == 0
    sim.run()
    assert sim.events_processed == 0


def test_mass_cancel_interleaved_with_live_timers(sim, recorder):
    """Cancel 99% of timers; the survivors still fire in order."""
    kept = []
    for i in range(5_000):
        event = sim.schedule(1.0 + i * 1e-4, recorder, i)
        if i % 100 != 0:
            event.cancel()
        else:
            kept.append(i)
    assert sim.heap_size() < 5_000
    sim.run()
    assert recorder.calls == kept
    assert sim.tombstones == 0


def test_pending_accounts_for_tombstones_after_compaction(sim):
    events = [sim.schedule(1.0, lambda: None) for _ in range(200)]
    for event in events[:150]:
        event.cancel()
    assert sim.pending() == 50


def test_compaction_preserves_ordering_and_determinism():
    """Two identical schedules — one with enough cancels to compact —
    fire the surviving callbacks at identical (time, order) points."""
    from repro.sim.kernel import Simulator

    def trace(mass_cancel: bool) -> list[tuple[float, int]]:
        sim = Simulator()
        calls: list[tuple[float, int]] = []
        live = [
            sim.schedule(0.5 + i * 0.01, lambda i=i: calls.append((sim.now, i)))
            for i in range(50)
        ]
        if mass_cancel:
            doomed = [sim.schedule(2.0, lambda: None) for _ in range(1_000)]
            for event in doomed:
                event.cancel()
        del live
        sim.run()
        return calls

    assert trace(mass_cancel=True) == trace(mass_cancel=False)


def test_cancel_after_fire_is_a_noop_for_the_accounting(sim, recorder):
    """A handle kept past its firing (a timeout that won its race, the
    timer whose callback is running) can be cancelled at no cost: no
    phantom tombstone, ``pending()`` stays the number of waiting events."""
    held = sim.schedule(1.0, recorder, "held")
    sim.run()
    held.cancel()
    assert (sim.tombstones, sim.pending()) == (0, 0)
    sim.schedule(1.0, recorder, "follow")
    assert sim.pending() == 1
    sim.run()
    assert recorder.calls == ["held", "follow"]


def test_cancel_from_inside_own_callback_counts_nothing(sim):
    timers = []
    timers.append(sim.schedule(1.0, lambda: timers[0].cancel()))
    sim.schedule(2.0, lambda: None)
    sim.step()
    assert (sim.tombstones, sim.pending()) == (0, 1)


# ---------------------------------------------------------------------------
# Bulk scheduling (schedule_batch)
# ---------------------------------------------------------------------------
def test_schedule_batch_fires_in_time_order(sim, recorder):
    sim.schedule_batch([3.0, 1.0, 2.0], recorder, args_list=[("c",), ("a",), ("b",)])
    sim.run()
    assert recorder.calls == ["a", "b", "c"]


def test_schedule_batch_matches_loop_of_schedule_at():
    """The bulk path is observationally identical to m schedule_at calls."""
    times = [5.0, 1.0, 1.0, 3.0, 2.0, 1.0, 4.0]

    def run(use_batch):
        sim = Simulator()
        order = []
        if use_batch:
            sim.schedule_batch(
                times, order.append, args_list=[(i,) for i in range(len(times))]
            )
        else:
            for i, t in enumerate(times):
                sim.schedule_at(t, order.append, i)
        sim.run()
        return order

    assert run(True) == run(False)


def test_schedule_batch_tie_break_is_input_order(sim, recorder):
    sim.schedule_batch([1.0] * 4, recorder, args_list=[(l,) for l in "abcd"])
    sim.run()
    assert recorder.calls == list("abcd")


def test_schedule_batch_interleaves_with_existing_events(sim, recorder):
    # A heap already larger than 8x the batch exercises the push path;
    # then a batch larger than heap/8 exercises extend+heapify.
    for i in range(100):
        sim.schedule_at(10.0 + i, recorder, f"old{i}")
    sim.schedule_batch([0.5, 11.5], recorder, args_list=[("b0",), ("b1",)])
    sim.schedule_batch(
        [float(i) + 0.25 for i in range(1, 31)],
        recorder,
        args_list=[(f"big{i}",) for i in range(30)],
    )
    sim.run()
    assert recorder.calls[0] == "b0"
    assert recorder.calls[1] == "big0"
    assert len(recorder.calls) == 132


def test_schedule_batch_empty_is_noop(sim):
    assert sim.schedule_batch([], lambda: None) == []
    sim.run()
    assert sim.events_processed == 0


def test_schedule_batch_shared_args(sim, recorder):
    """Without args_list every event fires the callback with no args."""
    hits = []
    sim.schedule_batch([1.0, 2.0], lambda: hits.append(sim.now))
    sim.run()
    assert hits == [1.0, 2.0]


def test_schedule_batch_validates_before_scheduling(sim, recorder):
    with pytest.raises(SimulationError):
        sim.schedule_batch([1.0, float("nan")], recorder, args_list=[("a",), ("b",)])
    with pytest.raises(SimulationError):
        sim.schedule_batch([-1.0], recorder, args_list=[("a",)])
    with pytest.raises(SimulationError):
        sim.schedule_batch([1.0], recorder, args_list=[("a",), ("b",)])
    # Nothing leaked into the heap from the rejected batches.
    sim.run()
    assert recorder.calls == []


def test_schedule_batch_events_cancellable(sim, recorder):
    events = sim.schedule_batch([1.0, 2.0, 3.0], recorder, args_list=[("a",), ("b",), ("c",)])
    events[1].cancel()
    sim.run()
    assert recorder.calls == ["a", "c"]


# ---------------------------------------------------------------------------
# Property: any interleaving fires in reference (time, priority, seq) order
# ---------------------------------------------------------------------------
class _ReferenceKernel:
    """The kernel's contract, executed naively: a flat list, ``min`` by
    ``(time, priority, seq)`` per firing, cancellation by flag."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.waiting = {}  # ident -> (time, priority, seq)
        self.fired = []

    def schedule_at(self, ident, time, priority):
        self.waiting[ident] = (time, priority, self.seq)
        self.seq += 1

    def cancel(self, ident):
        self.waiting.pop(ident, None)  # fired or cancelled already: no-op

    def step(self, until=math.inf):
        if not self.waiting:
            return False
        ident = min(self.waiting, key=self.waiting.get)
        time = self.waiting[ident][0]
        if time > until:
            return False
        del self.waiting[ident]
        self.now = time
        self.fired.append((ident, time))
        return True

    def run(self, until):
        while self.step(until):
            pass
        self.now = max(self.now, until)


# Few distinct offsets and priorities, so ties in time and in (time,
# priority) are the common case and seq has to break them.
_OFFSETS = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 3.0])
_PRIORITIES = st.sampled_from([0, 0, 0, 1, -1])
_KERNEL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _OFFSETS, _PRIORITIES),
        st.tuples(st.just("schedule_at"), _OFFSETS, _PRIORITIES),
        st.tuples(st.just("batch"), st.lists(_OFFSETS, max_size=12), _PRIORITIES),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        # Enough doomed timers to cross the compaction threshold.
        st.tuples(st.just("cancel_burst"), st.integers(70, 200), _OFFSETS),
        st.tuples(st.just("step")),
        st.tuples(st.just("run"), _OFFSETS),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_KERNEL_OPS)
def test_any_interleaving_fires_in_reference_order(ops):
    sim, model = Simulator(), _ReferenceKernel()
    fired, handles = [], []

    def add(times, priority, batch=False):
        idents = list(range(len(handles), len(handles) + len(times)))
        args_list = [(ident,) for ident in idents]
        callback = lambda ident: fired.append((ident, sim.now))  # noqa: E731
        if batch:
            handles.extend(sim.schedule_batch(times, callback, args_list, priority))
        else:
            for time, args in zip(times, args_list):
                handles.append(sim.schedule_at(time, callback, *args, priority=priority))
        for ident, time in zip(idents, times):
            model.schedule_at(ident, time, priority)
        return idents

    for op in ops:
        if op[0] == "schedule":
            ident = len(handles)
            handles.append(
                sim.schedule(op[1], lambda i=ident: fired.append((i, sim.now)), priority=op[2])
            )
            model.schedule_at(ident, model.now + op[1], op[2])
        elif op[0] == "schedule_at":
            add([sim.now + op[1]], op[2])
        elif op[0] == "batch":
            add([sim.now + offset for offset in op[1]], op[2], batch=True)
        elif op[0] == "cancel" and handles:
            ident = op[1] % len(handles)
            handles[ident].cancel()
            model.cancel(ident)
        elif op[0] == "cancel_burst":
            for ident in add([sim.now + op[2]] * op[1], 0)[: op[1] - 3]:
                handles[ident].cancel()
                model.cancel(ident)
        elif op[0] == "step":
            assert sim.step() == model.step()
        elif op[0] == "run":
            until = sim.now + op[1]
            sim.run(until=until)
            model.run(until)
        assert sim.now == model.now
        assert sim.pending() == len(model.waiting)
        assert sim.tombstones == sum(e[-1].cancelled for e in sim._heap)
    sim.run()
    while model.step():
        pass
    assert fired == model.fired
    assert sim.events_processed == len(fired)
    assert (sim.pending(), sim.tombstones, sim.heap_size()) == (0, 0, 0)
