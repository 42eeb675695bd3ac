"""Bounded most-recent-sample windows.

§5.2: "The client handlers record the most recent ``l`` measurements of
these parameters in separate sliding windows in an information repository.
The size of the sliding window, ``l``, is chosen so as to include a
reasonable number of recently measured values, while eliminating obsolete
measurements."

Beyond the paper, each window carries two pieces of bookkeeping that make
the §5.2 prediction loop incremental instead of per-read:

* a monotonically increasing **version** (bumped on every record/clear),
  which the prediction cache uses as an invalidation key — "has anything
  changed since the pmf was last built?" becomes one integer comparison;
* an incrementally maintained **quantized histogram** (integer bin counts
  updated on record and evict), which is the form the predictor's exact
  count arithmetic (:class:`~repro.stats.pmf.CountHistogram`) consumes —
  no pass over the raw samples, no normalization.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

import numpy as np

from repro.stats.pmf import DEFAULT_QUANTUM


def quantize_bin(value: float, quantum: float) -> int:
    """Grid bin of one duration sample: ``rint(max(0, value) / quantum)``.

    Python's ``round`` and ``numpy.rint`` both round half to even on the
    same IEEE double, so this matches the vectorized binning in
    :meth:`~repro.stats.pmf.DiscretePmf.from_samples` bit for bit.
    """
    return round(max(0.0, float(value)) / quantum)


class SlidingWindow:
    """Keeps the most recent ``size`` float samples in arrival order."""

    def __init__(self, size: int, quantum: float = DEFAULT_QUANTUM) -> None:
        if size <= 0:
            raise ValueError(f"window size must be positive, got {size!r}")
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum!r}")
        self.size = int(size)
        self.quantum = float(quantum)
        self._samples: deque[float] = deque(maxlen=self.size)
        self._bin_counts: dict[int, int] = {}
        self.total_recorded = 0
        self.version = 0

    def record(self, value: float) -> None:
        """Append one sample, evicting the oldest once full."""
        value = float(value)
        if len(self._samples) == self.size:
            evicted_bin = quantize_bin(self._samples[0], self.quantum)
            remaining = self._bin_counts[evicted_bin] - 1
            if remaining:
                self._bin_counts[evicted_bin] = remaining
            else:
                del self._bin_counts[evicted_bin]
        self._samples.append(value)
        new_bin = quantize_bin(value, self.quantum)
        self._bin_counts[new_bin] = self._bin_counts.get(new_bin, 0) + 1
        self.total_recorded += 1
        self.version += 1

    def extend(self, values) -> None:
        for value in values:
            self.record(value)

    def samples(self) -> list[float]:
        """Snapshot of the window contents, oldest first."""
        return list(self._samples)

    def histogram(self, quantum: float) -> Optional[tuple[int, np.ndarray]]:
        """``(offset, counts)`` of the maintained histogram, or ``None``.

        ``None`` means the caller's quantum does not match this window's
        grid (or the window is empty) and it must fall back to binning the
        raw samples itself.  The counts are exact ``int64`` (they sum to
        ``len(self)``) in a freshly allocated array the caller may keep.
        """
        if not self._bin_counts or abs(quantum - self.quantum) > 1e-15:
            return None
        low = min(self._bin_counts)
        high = max(self._bin_counts)
        counts = np.zeros(high - low + 1, dtype=np.int64)
        for bin_index, count in self._bin_counts.items():
            counts[bin_index - low] = count
        return low, counts

    @property
    def latest(self) -> Optional[float]:
        return self._samples[-1] if self._samples else None

    @property
    def full(self) -> bool:
        return len(self._samples) == self.size

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("mean of an empty window")
        return sum(self._samples) / len(self._samples)

    def clear(self) -> None:
        self._samples.clear()
        self._bin_counts.clear()
        self.version += 1

    def __len__(self) -> int:
        return len(self._samples)

    def __bool__(self) -> bool:
        return bool(self._samples)

    def __iter__(self) -> Iterator[float]:
        return iter(self._samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlidingWindow(size={self.size}, n={len(self._samples)})"


class PairWindow:
    """A sliding window of ``(count, duration)`` pairs.

    Used for the update-arrival-rate estimate of §5.4.1: the client records
    a history of ``<n_u, t_u>`` pairs and computes
    ``lambda_u = sum(n_u) / sum(t_u)`` over the window.  The sums are
    maintained incrementally (updated on record and evict) so
    :meth:`rate` is O(1) — it sits on the staleness-factor path evaluated
    once per read.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"window size must be positive, got {size!r}")
        self.size = int(size)
        self._pairs: deque[tuple[int, float]] = deque(maxlen=self.size)
        self._count_sum = 0
        self._time_sum = 0.0
        self.version = 0

    def record(self, count: int, duration: float) -> None:
        if count < 0:
            raise ValueError(f"negative count {count!r}")
        if duration < 0:
            raise ValueError(f"negative duration {duration!r}")
        evicting = len(self._pairs) == self.size
        if evicting:
            self._count_sum -= self._pairs[0][0]
        count = int(count)
        duration = float(duration)
        self._pairs.append((count, duration))
        self._count_sum += count
        if evicting:
            # Subtracting the evicted duration incrementally leaves float
            # residue (catastrophic after a large entry leaves a small
            # window, and non-zero when the true sum is exactly zero).
            # The window is small, so re-sum the visible durations; the
            # counts stay incremental — integer arithmetic is exact.
            self._time_sum = sum(t for _, t in self._pairs)
        else:
            self._time_sum += duration
        self.version += 1

    def rate(self, default: float = 0.0) -> float:
        """``sum(counts) / sum(durations)``, or ``default`` if no time yet."""
        if not self._pairs or self._time_sum <= 0:
            return default
        return self._count_sum / self._time_sum

    def pairs(self) -> list[tuple[int, float]]:
        return list(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PairWindow(size={self.size}, n={len(self._pairs)})"
