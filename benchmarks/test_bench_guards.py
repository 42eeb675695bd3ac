"""Guards on "feature off means free".

Telemetry and the φ-accrual detector are default-off, and what they leave
on a hot path when off — a no-op instrument call, an ``if trace.enabled``
or an ``if self.detector is not None`` — must cost under 3 % of one
simulation-kernel event, so that instrumenting per event is free when off.
All four guards are measured against one ``kernel_event_seconds``.  What
the features cost when *on* is printed for the reader and gated nowhere
here: the perf ledger's ``chaos`` workload runs with them on and carries
that cost (``obs.self_us_per_op``, ``host_us_per_op``).  That includes an
enabled trace record: ``trace.emit`` shaped like the fabric's
``net.deliver``, and an ``emit_span``.

Run: ``pytest benchmarks/test_bench_guards.py --benchmark-only``
"""

from __future__ import annotations

import time
from statistics import median

import pytest

from repro.core.detector import DetectorConfig, PhiAccrualDetector
from repro.experiments.report import format_table
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.spans import emit_span
from repro.sim.kernel import Simulator
from repro.sim.tracing import NULL_TRACE, Trace

OPS = 200_000
KERNEL_EVENTS = 50_000
REPEATS = 5
GATE = 0.03


def _noop() -> None:
    return None


def _median_seconds(run, operations: int) -> float:
    """Wall seconds of ``run()`` per operation, median of ``REPEATS`` runs."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        samples.append((time.perf_counter() - t0) / operations)
    return median(samples)


@pytest.fixture(scope="session")
def kernel_event_seconds() -> float:
    """Seconds per schedule+fire kernel event, measured once per session."""

    def run() -> None:
        sim = Simulator()
        for i in range(KERNEL_EVENTS):
            sim.schedule(1.0 + (i % 1000) * 1e-4, _noop)
        sim.run()

    return _median_seconds(run, KERNEL_EVENTS)


def _seconds_per_call(fn, ops: int = OPS) -> float:
    """Seconds per call of ``fn``, with the cost of the bare loop subtracted."""

    def loop(body) -> float:
        def run() -> None:
            for _ in range(ops):
                body()

        return _median_seconds(run, ops)

    return max(0.0, loop(fn) - loop(_noop))


class _Carrier:
    """Stand-in for a handler with the detector feature switched off."""

    detector = None


_CARRIER = _Carrier()
_NOOP_HISTOGRAM = NULL_METRICS.histogram("bench_hist")


def _disabled_observe() -> None:
    _NOOP_HISTOGRAM.observe(0.01)


def _disabled_span_guard() -> None:
    if NULL_TRACE.enabled:  # pragma: no cover - never taken
        NULL_TRACE.emit(0.0, "span", "bench", span="req-0", name="x")


def _disabled_detector_guard() -> None:
    if _CARRIER.detector is not None:  # pragma: no cover - never taken
        _CARRIER.detector.record("peer", 0.0)


DISABLED = {
    "counter.inc": NULL_METRICS.counter("bench_counter").inc,
    "histogram.observe": _disabled_observe,
    "span guard": _disabled_span_guard,
    "detector guard": _disabled_detector_guard,
}


@pytest.mark.benchmark(group="guards")
@pytest.mark.parametrize("name", DISABLED)
def test_disabled_feature_vanishes_against_a_kernel_event(
    benchmark, report, kernel_event_seconds, name
):
    guard = DISABLED[name]
    cost = _seconds_per_call(guard)
    benchmark.pedantic(guard, rounds=3, iterations=OPS)
    ratio = cost / kernel_event_seconds
    report(
        f"disabled {name}: {1e9 * cost:.1f} ns/op = {100 * ratio:.2f}% of one "
        f"kernel event ({1e9 * kernel_event_seconds:.0f} ns)"
    )
    assert ratio < GATE, (
        f"disabled {name} costs {100 * ratio:.2f}% of a kernel event "
        f"(bound: {100 * GATE:.0f}%)"
    )


def _warm_detector() -> PhiAccrualDetector:
    det = PhiAccrualDetector(DetectorConfig(window_size=64, min_samples=8))
    t = 0.0
    for _ in range(80):  # fill the window past min_samples
        det.record("peer", t)
        t += 0.05
    return det


@pytest.mark.benchmark(group="guards")
def test_enabled_costs_are_reported(benchmark, report, kernel_event_seconds):
    registry = MetricsRegistry()
    live_counter = registry.counter("bench_counter")
    live_histogram = registry.histogram("bench_hist")
    det = _warm_detector()
    clock = {"t": 100.0}

    def record_arrival() -> None:
        clock["t"] += 0.05
        det.record("peer", clock["t"])

    calls = {
        "counter.inc": live_counter.inc,
        "histogram.observe": lambda: live_histogram.observe(0.01),
        "detector.record": record_arrival,
        "detector.phi": lambda: det.phi("peer", clock["t"] + 0.04),
        "detector.suspicion_check": lambda: det.suspicion_check(
            "peer", clock["t"] + 0.04
        ),
        "detector.adaptive_timeout": lambda: det.adaptive_timeout("peer", 0.5),
    }
    costs = {name: _seconds_per_call(fn, ops=OPS // 4) for name, fn in calls.items()}
    # An enabled trace keeps every record, so fewer calls keep memory small.
    trace = Trace(enabled=True)
    emits = {
        # Shaped like the fabric's per-message net.deliver record.
        "trace.emit": lambda: trace.emit(
            100.0, "net.deliver", "peer", sender="client", kind="Request", msg_id=7
        ),
        "emit_span": lambda: emit_span(
            trace, 100.0, "peer", "req-7/s/peer", "serve", gsn=3, deferred=False
        ),
    }
    for name, fn in emits.items():
        costs[name] = _seconds_per_call(fn, ops=OPS // 40)
        trace.clear()
    # Carries a benchmark so ``--benchmark-only`` runs do not skip the table.
    benchmark.pedantic(live_counter.inc, rounds=3, iterations=OPS)
    report("")
    report(
        format_table(
            ["enabled call", "ns/op", "% of one kernel event"],
            [
                (name, f"{1e9 * cost:.1f}", f"{100 * cost / kernel_event_seconds:.2f}%")
                for name, cost in costs.items()
            ],
            title=(
                "Enabled telemetry and detector calls "
                f"(kernel: {1e9 * kernel_event_seconds:.0f} ns/event)"
            ),
        )
    )
