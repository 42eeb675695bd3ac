"""Simulation-kernel benchmarks (ISSUE 2).

Event throughput of the kernel under a realistic schedule/cancel/run
mix — the regime tombstone compaction targets (deadline timers that are
nearly always cancelled before firing) — and under a pure schedule+fire
mix, where the C-compared ``(time, priority, seq, event)`` heap entries
carry the run.

The runner-speedup measurement (quick Figure 4 sweep at several
``--jobs`` levels) lives in ``test_bench_figure4.py``.

Run: ``pytest benchmarks/test_bench_kernel.py --benchmark-only``
"""

from __future__ import annotations

import time

import pytest

from repro.sim.kernel import Simulator


def _timed_pedantic(benchmark, fn, *, args=(), rounds=1):
    """Run via benchmark.pedantic, returning (result, mean_seconds).

    Falls back to wall-clock timing when stats are absent
    (``--benchmark-disable`` runs the function once without timing it).
    """
    t0 = time.perf_counter()
    result = benchmark.pedantic(fn, args=args, rounds=rounds, iterations=1)
    elapsed = time.perf_counter() - t0
    if benchmark.stats is not None:
        return result, benchmark.stats.stats.mean
    return result, elapsed / rounds


# ---------------------------------------------------------------------------
# Kernel event throughput
# ---------------------------------------------------------------------------
def _timer_mix(events: int, cancel_every: int = 10) -> Simulator:
    """Schedule ``events`` timers, cancel all but every ``cancel_every``-th
    (the deadline-timer pattern: most are cancelled by an earlier reply),
    then run to idle."""
    sim = Simulator()
    survivors = 0
    for i in range(events):
        event = sim.schedule(1.0 + (i % 1000) * 1e-4, _noop)
        if i % cancel_every:
            event.cancel()
        else:
            survivors += 1
    sim.run()
    assert sim.events_processed == survivors
    return sim


def _noop() -> None:
    return None


def _fire_all(events: int) -> Simulator:
    """Pure schedule+fire mix (no cancels): heap push/pop dominates."""
    sim = Simulator()
    for i in range(events):
        sim.schedule(1.0 + (i % 1000) * 1e-4, _noop)
    sim.run()
    assert sim.events_processed == events
    return sim


@pytest.mark.benchmark(group="kernel-throughput")
def test_kernel_timer_mix_throughput(benchmark, report, record):
    events = 50_000
    sim, mean_s = _timed_pedantic(benchmark, _timer_mix, args=(events,), rounds=3)
    per_sec = events / mean_s
    report(
        f"kernel timer mix (90% cancelled): {per_sec:,.0f} scheduled events/s, "
        f"{sim.compactions} compactions, final heap {sim.heap_size()}"
    )
    record("timer_mix_events_per_second", per_sec)
    assert sim.compactions > 0  # the tombstone path actually exercised


@pytest.mark.benchmark(group="kernel-throughput")
def test_kernel_fire_throughput(benchmark, report, record):
    events = 50_000
    _, mean_s = _timed_pedantic(benchmark, _fire_all, args=(events,), rounds=3)
    per_sec = events / mean_s
    report(f"kernel schedule+fire: {per_sec:,.0f} events/s")
    record("fire_events_per_second", per_sec)


# ---------------------------------------------------------------------------
# Batched scheduling (the aggregate tier's arrival fast path)
# ---------------------------------------------------------------------------
def _batch_fire_all(events: int, batch: int) -> Simulator:
    sim = Simulator()
    for start in range(0, events, batch):
        n = min(batch, events - start)
        sim.schedule_batch([1.0 + (start + i) * 1e-6 for i in range(n)], _noop)
    sim.run()
    assert sim.events_processed == events
    return sim


@pytest.mark.benchmark(group="kernel-throughput")
def test_kernel_batch_schedule_throughput(benchmark, report, record):
    events, batch = 50_000, 2_500
    _, mean_s = _timed_pedantic(
        benchmark, _batch_fire_all, args=(events, batch), rounds=3
    )
    per_sec = events / mean_s
    report(
        f"kernel schedule_batch (batches of {batch}): {per_sec:,.0f} events/s"
    )
    record("batch_schedule_events_per_second", per_sec)


# ---------------------------------------------------------------------------
# Hot message/request allocation (``slots=True`` dataclasses)
# ---------------------------------------------------------------------------
def _allocate_messages(count: int) -> int:
    from repro.core.requests import Reply, Request, RequestKind
    from repro.net.message import Message

    from repro.core.qos import QoSSpec

    qos = QoSSpec(2, 0.160, 0.9)
    total = 0
    for i in range(count):
        request = Request(
            request_id=i, client="c", method="get", args=(),
            kind=RequestKind.READ, qos=qos, sent_at=float(i),
        )
        reply = Reply(
            request_id=i, replica="p1", kind=RequestKind.READ,
            value=None, t1=0.1, gsn=i,
        )
        message = Message(
            sender="c", recipient="p1", payload=request, sent_at=float(i),
        )
        total += message.size_bytes + reply.gsn
    return total


@pytest.mark.benchmark(group="kernel-allocation")
def test_message_allocation_throughput(benchmark, report, record):
    """Allocation rate of the per-request wire objects.

    These are the busiest allocations in a run (every simulated request
    creates a Request, several Messages, and several Replies), which is
    why they carry ``slots=True``; this bench pins the win so a slots
    regression shows up as a rate drop.
    """
    count = 20_000
    _, mean_s = _timed_pedantic(
        benchmark, _allocate_messages, args=(count,), rounds=3
    )
    per_sec = count / mean_s
    report(f"request/reply/message allocation: {per_sec:,.0f} triples/s")
    record("message_allocation_triples_per_second", per_sec)
    # slots classes must not grow per-instance dicts.
    from repro.net.message import Message

    message = Message(sender="a", recipient="b", payload=None, sent_at=0.0)
    assert not hasattr(message, "__dict__")
