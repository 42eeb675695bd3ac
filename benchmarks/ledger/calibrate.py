"""Host-speed calibration for the perf ledger.

Raw wall time on the shared two-core sandbox drifts by about a quarter
over tens of seconds, so no raw-seconds number can gate anything.  Every
host-clock measurement of the ledger is therefore taken between two runs
of one fixed reference loop and reported as

    measured_seconds / mean(calib_before, calib_after) * CALIB_REF_S

which reads as "seconds on the reference host": a host (or a moment)
that runs the reference loop twice as slowly is assumed to run the
simulator twice as slowly too.  The loop does what the simulator's hot
path does — heap pushes and pops of tuples, dict stores and float
arithmetic in pure Python — and nothing the simulator does not.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Callable, Tuple, TypeVar

T = TypeVar("T")

#: One calibration is the fastest of this many passes of the reference
#: loop, times the number of passes: about 24 ms on the reference host.
#: The fastest pass, because a pass that another tenant of the host
#: interrupted says nothing about the speed the simulator will run at.
CALIB_PASSES = 3
CALIB_ITERATIONS = 12_000

#: Median calibration of the sandbox the ledger was first recorded on
#: (100 runs, each the median of 50 or more calibrations).  Frozen:
#: changing it rescales every host-clock metric.
CALIB_REF_S = 0.0244

#: A cell whose two bracketing calibrations differ by more than this
#: share of the smaller one saw the host change speed under it.
MAX_BRACKET_DRIFT = 0.30

#: How often such a cell is re-run before its measurement is accepted.
MAX_RETRIES = 2


class RetryBudget:
    """Re-runs a whole run may still spend, so a restless host cannot
    stretch a run to three times its length."""

    def __init__(self, retries: int) -> None:
        self.left = retries


def reference_loop(iterations: int = CALIB_ITERATIONS) -> float:
    """The fixed pure-Python heap + dict + float workload."""
    heap: list = []
    table: dict = {}
    acc = 0.0
    x = 12345
    push = heapq.heappush
    pop = heapq.heappop
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        t = x * 4.656612875245797e-10
        push(heap, (t, i))
        table[i & 1023] = t
        if i & 1:
            acc += pop(heap)[0] * table.get((i >> 1) & 1023, 0.0)
    return acc


def calibrate() -> float:
    """Wall seconds the reference loop takes right now.

    The cyclic collector is held off meanwhile: the loop allocates, and a
    collection it triggered would charge the garbage of whatever cell ran
    before it to the host's speed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fastest = float("inf")
        for _ in range(CALIB_PASSES):
            start = time.perf_counter()
            reference_loop()
            fastest = min(fastest, time.perf_counter() - start)
        return CALIB_PASSES * fastest
    finally:
        if was_enabled:
            gc.enable()


def normalise(seconds: float, calib_s: float) -> float:
    """``seconds`` as they would have read on the reference host."""
    return seconds / calib_s * CALIB_REF_S


def bracketed(
    measure: Callable[[], T], budget: RetryBudget
) -> Tuple[T, float, int]:
    """Run ``measure`` between two calibrations.

    Returns ``(result, calib_s, retries)`` where ``calib_s`` is the mean
    of the two bracketing calibrations.  When they differ by more than
    :data:`MAX_BRACKET_DRIFT` the measurement is repeated, at most
    :data:`MAX_RETRIES` times and only while ``budget`` lasts; the last
    attempt is kept either way and the retry count is reported so a
    noisy run is visible.
    """
    retries = 0
    while True:
        before = calibrate()
        result = measure()
        after = calibrate()
        drift = abs(after - before) / min(after, before)
        if drift <= MAX_BRACKET_DRIFT or retries >= MAX_RETRIES or budget.left <= 0:
            return result, (before + after) / 2.0, retries
        retries += 1
        budget.left -= 1
