"""Discrete probability mass functions over quantized durations.

§5.2 of the paper computes a replica's response-time distribution as the
*discrete convolution* of the pmfs of its service time ``S``, queuing delay
``W``, (for deferred reads) lazy-update wait ``U``, and the most recent
gateway delay ``G``.  The pmfs themselves come from the relative frequency
of values recorded in sliding windows.

:class:`DiscretePmf` represents a pmf on a uniform grid: values are
``(offset + index) * quantum`` seconds.  The grid makes convolution a plain
``numpy.convolve`` (offsets add, mass arrays convolve), which keeps the
online prediction cheap — exactly the property the paper's Figure 3
overhead measurement depends on.

:class:`CountHistogram` is the same grid with *integer counts* instead of
normalized mass.  The §5.2 selection loop needs only two numbers per
replica, ``F^I(d)`` and ``F^D(d)``, which the predictor counts straight
off the sliding windows' bins — no pmf is built.  A :class:`DiscretePmf`
is materialized from counts only where a whole distribution is really
needed: the aggregated client tier resolves a batch of arrivals from
:func:`first_reply_law`, the joint law of the earliest of the selected
replicas' replies.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_QUANTUM = 1e-3  # 1 ms bins

# Count arithmetic runs in int64; a product of totals is checked against
# this before it is formed, so nothing can wrap silently.
_COUNT_LIMIT = 2**63


def quantize_bins(samples: Iterable[float], quantum: float) -> np.ndarray:
    """Grid bin of each duration sample: ``rint(max(0, value) / quantum)``.

    Round-half-even, negative samples clamped to zero — the one binning
    rule shared by pmfs, count histograms and the sliding windows' bins
    (``quantize_bin`` is its scalar twin).
    """
    values = np.asarray(
        samples if isinstance(samples, np.ndarray) else list(samples), dtype=float
    )
    if values.size == 0:
        raise ValueError("cannot quantize zero samples")
    return np.rint(np.maximum(values, 0.0) / quantum).astype(np.int64)


class CountHistogram:
    """Exact sample counts on the grid: ``counts[i]`` samples in bin ``offset + i``.

    Sums of independent window variables stay integer histograms
    (:meth:`convolve` multiplies totals): the aggregated client tier's
    sampling pmfs are normalized from them once.
    """

    __slots__ = ("offset", "counts", "total")

    def __init__(self, offset: int, counts: np.ndarray, total: int) -> None:
        self.offset = int(offset)
        self.counts = counts
        self.total = total

    @classmethod
    def from_samples(
        cls, samples: Iterable[float], quantum: float = DEFAULT_QUANTUM
    ) -> "CountHistogram":
        """Bin raw duration samples (one count each) by :func:`quantize_bins`."""
        bins = quantize_bins(samples, quantum)
        low = int(bins.min())
        return cls(low, np.bincount(bins - low), bins.size)

    def convolve(self, other: "CountHistogram") -> "CountHistogram":
        """Counts of the sum: one entry per (self sample, other sample) pair."""
        total = self.total * other.total
        if total >= _COUNT_LIMIT:
            raise OverflowError(f"{total} sample pairs overflow int64 counts")
        return CountHistogram(
            self.offset + other.offset,
            np.convolve(self.counts, other.counts),
            total,
        )


class DiscretePmf:
    """A pmf on the uniform grid ``value = (offset + i) * quantum``.

    Instances are immutable in practice: all operations return new pmfs.
    """

    __slots__ = ("quantum", "offset", "mass", "_cum", "_pad", "_guide")

    def __init__(self, quantum: float, offset: int, mass: np.ndarray) -> None:
        if quantum <= 0:
            raise ValueError(f"non-positive quantum {quantum!r}")
        if offset < 0:
            raise ValueError(f"negative offset {offset!r} (durations only)")
        mass = np.asarray(mass, dtype=float)
        if mass.ndim != 1 or mass.size == 0:
            raise ValueError("mass must be a non-empty 1-D array")
        if np.any(mass < -1e-12):
            raise ValueError("negative probability mass")
        total = float(mass.sum())
        if total <= 0:
            raise ValueError("zero total probability mass")
        self.quantum = float(quantum)
        self.offset = int(offset)
        self.mass = np.clip(mass, 0.0, None) / total
        self._cum: Optional[np.ndarray] = None
        self._pad: Optional[np.ndarray] = None
        self._guide: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(
        cls, samples: Iterable[float], quantum: float = DEFAULT_QUANTUM
    ) -> "DiscretePmf":
        """Build a pmf from raw duration samples by quantizing to the grid.

        Each sample contributes equal mass (relative frequency, as §5.2
        prescribes).  Negative samples are clamped to zero.
        """
        binned = CountHistogram.from_samples(samples, quantum)
        return cls(quantum, binned.offset, binned.counts)

    @classmethod
    def from_histogram(
        cls,
        quantum: float,
        offset: int,
        counts: Sequence[float] | np.ndarray,
    ) -> "DiscretePmf":
        """Build a pmf from pre-binned counts on the grid.

        The counterpart of :meth:`from_samples` for callers that already
        maintain an incremental histogram (``SlidingWindow.histogram``):
        the counts are taken as-is, so construction is O(bins) with no
        pass over raw samples.  Bit-for-bit equivalent to
        :meth:`from_samples` on the samples the histogram summarizes.
        """
        return cls(quantum, offset, np.asarray(counts, dtype=float))

    @classmethod
    def degenerate(
        cls, value: float, quantum: float = DEFAULT_QUANTUM
    ) -> "DiscretePmf":
        """A point mass at ``value``."""
        bin_index = max(0, int(round(max(0.0, value) / quantum)))
        return cls(quantum, bin_index, np.array([1.0]))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def support_min(self) -> float:
        return self.offset * self.quantum

    @property
    def support_max(self) -> float:
        return (self.offset + self.mass.size - 1) * self.quantum

    def values(self) -> np.ndarray:
        """Grid values (seconds) aligned with :attr:`mass`."""
        return (self.offset + np.arange(self.mass.size)) * self.quantum

    def mean(self) -> float:
        return float(np.dot(self.values(), self.mass))

    def _cumulative(self) -> np.ndarray:
        """Lazily materialized running sum of :attr:`mass`.

        Built once per pmf, after which every :meth:`cdf` is an O(1)
        index, :meth:`quantile` an O(log n) bisection, and
        :meth:`cdf_many` one vectorized gather — instead of O(n) slicing
        per call.  Safe because instances are immutable in practice.
        """
        cum = self._cum
        if cum is None:
            cum = np.cumsum(self.mass)
            self._cum = cum
        return cum

    def _padded_cumulative(self) -> np.ndarray:
        """Cumulative mass with a leading 0.0, cached like :attr:`_cum`.

        The pad turns a :meth:`cdf_many` gather into one fancy index with
        no branch for the "before the support" bucket; caching it keeps
        repeated batched evaluations (the selection hot loop) from
        re-allocating the array per call.
        """
        padded = self._pad
        if padded is None:
            padded = np.concatenate(([0.0], self._cumulative()))
            self._pad = padded
        return padded

    def cdf(self, x: float) -> float:
        """P(X <= x): total mass of grid values <= x (float-error tolerant).

        Never above 1.0: a running sum of normalised mass can overshoot it
        by an ulp inside the support.
        """
        if x < self.support_min:
            return 0.0
        # math.floor == np.floor for every finite float, without the numpy
        # scalar round-trip — this is the hottest line of the predictor.
        upto = math.floor(x / self.quantum + 1e-9) - self.offset + 1
        if upto <= 0:
            return 0.0
        if upto >= self.mass.size:
            return 1.0
        return min(1.0, float(self._cumulative()[upto - 1]))

    def cdf_many(self, xs: Iterable[float]) -> np.ndarray:
        """Vectorized :meth:`cdf` over many evaluation points at once.

        One gather against the cached cumulative array, for callers that
        evaluate a batch of deadlines (or one deadline against a grid of
        candidates) in a single step.  Element-for-element identical to
        calling :meth:`cdf` in a loop.
        """
        xs = np.asarray(list(xs) if not isinstance(xs, np.ndarray) else xs, dtype=float)
        bins = np.floor(xs / self.quantum + 1e-9).astype(int)
        upto = np.clip(bins - self.offset + 1, 0, self.mass.size)
        out = self._padded_cumulative()[upto]
        out[upto == self.mass.size] = 1.0
        out[xs < self.support_min] = 0.0
        return np.minimum(out, 1.0, out=out)

    def _guide_table(self) -> np.ndarray:
        """Where the inverse-CDF search may start, per slice of ``[0, 1)``.

        Entry ``j`` is ``searchsorted(cum, j / K, side="right")`` (capped at
        the last bin) for ``K = guide.size``, a power of two of 4–8 slices
        per bin: a lower bound on the bin of every ``u`` in slice ``j``,
        and for all but the few ``u`` that share their slice with a step of
        the cdf, the bin itself.  ``K`` being a power of two makes
        ``u * K`` and ``j / K`` exact, so the bound holds in floating
        point, not just on paper.  Built by counting cdf steps per slice —
        O(bins + K), no search — and cached like :attr:`_cum`.
        """
        guide = self._guide
        if guide is None:
            cum = self._cumulative()
            slices = 1 << (4 * cum.size - 1).bit_length()
            steps = np.minimum(np.ceil(cum * slices), slices).astype(np.intp)
            guide = np.cumsum(np.bincount(steps, minlength=slices + 1))[:slices]
            np.minimum(guide, cum.size - 1, out=guide)
            self._guide = guide
        return guide

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` i.i.d. values from the pmf (inverse-CDF on the grid).

        One uniform vector looked up in the cached cumulative array.  Each
        draw is a grid value, i.e. exactly a value :meth:`quantile` could
        return.

        The lookup is ``searchsorted(cum, u, side="right")`` draw for draw.
        A batch of at least as many draws as bins computes it as one gather
        from :meth:`_guide_table` plus a real search for the few draws the
        table only bounds: a binary search per uniform draw mispredicts a
        branch per level.
        """
        if n < 0:
            raise ValueError(f"negative sample count {n!r}")
        if n == 0:
            return np.empty(0, dtype=float)
        u = rng.random(n)
        cum = self._cumulative()
        if n < cum.size:
            # Too few draws to pay for the table.
            indices = np.searchsorted(cum, u, side="right")
        else:
            guide = self._guide_table()
            indices = guide[(u * guide.size).astype(np.intp)]
            bounded = np.flatnonzero(cum[indices] <= u)
            if bounded.size:
                indices[bounded] = np.searchsorted(cum, u[bounded], side="right")
        np.minimum(indices, cum.size - 1, out=indices)
        return (self.offset + indices) * self.quantum

    def quantile(self, q: float) -> float:
        """Smallest grid value v with P(X <= v) >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level {q!r} outside [0, 1]")
        cumulative = self._cumulative()
        index = int(np.searchsorted(cumulative, q - 1e-12))
        index = min(index, self.mass.size - 1)
        return (self.offset + index) * self.quantum

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def convolve(self, other: "DiscretePmf") -> "DiscretePmf":
        """Distribution of the sum of two independent grid variables."""
        if abs(other.quantum - self.quantum) > 1e-15:
            raise ValueError(
                f"quantum mismatch: {self.quantum} vs {other.quantum}"
            )
        mass = np.convolve(self.mass, other.mass)
        return DiscretePmf(self.quantum, self.offset + other.offset, mass)

    def mix(self, other: "DiscretePmf", weight: float) -> "DiscretePmf":
        """Mixture ``weight * self + (1 - weight) * other``."""
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"mixture weight {weight!r} outside [0, 1]")
        if abs(other.quantum - self.quantum) > 1e-15:
            raise ValueError("quantum mismatch in mixture")
        low = min(self.offset, other.offset)
        high = max(self.offset + self.mass.size, other.offset + other.mass.size)
        mass = np.zeros(high - low, dtype=float)
        mass[self.offset - low : self.offset - low + self.mass.size] += (
            weight * self.mass
        )
        mass[other.offset - low : other.offset - low + other.mass.size] += (
            1.0 - weight
        ) * other.mass
        return DiscretePmf(self.quantum, low, mass)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiscretePmf(quantum={self.quantum}, bins={self.mass.size}, "
            f"support=[{self.support_min:.4f}, {self.support_max:.4f}], "
            f"mean={self.mean():.4f})"
        )


def _shared_quantum(pmfs: Sequence[DiscretePmf]) -> float:
    """The one grid step of ``pmfs`` (non-empty); raises when they differ."""
    quantum = pmfs[0].quantum
    for pmf in pmfs[1:]:
        if abs(pmf.quantum - quantum) > 1e-15:
            raise ValueError(f"quantum mismatch: {quantum} vs {pmf.quantum}")
    return quantum


def first_reply_law(
    pmfs: Sequence[DiscretePmf], deferred: Sequence[bool]
) -> tuple[int, np.ndarray]:
    """Joint law of the first of several independent replies, bin by bin.

    ``pmfs`` are the response-time pmfs of the replicas a read was sent to,
    in the order they were selected; ``deferred[i]`` says whether replica
    ``i`` answers as a deferred secondary.  Returns ``(offset, win)`` with
    ``win[c, t]`` the probability that the earliest reply lands in grid bin
    ``offset + t`` and that the earliest-*listed* replica attaining it has
    ``deferred == bool(c)``.  ``win.sum(axis=0).cumsum()`` is Eq. 1,
    ``1 − Π (1 − F_Ri)``, at every bin at once, and ``win`` sums to 1.

    A tie goes to the replica listed first: replica ``i`` wins bin ``t``
    when it replies in ``t``, every earlier one strictly later and every
    later one no sooner, ``g_i(t) · Π_{j<i} P(X_j > t) · Π_{j>i} P(X_j >= t)``.
    The fold is O(len(pmfs) · bins): the first reply cannot be later than
    any replica's last bin, so the grid ends at the smallest support
    maximum.
    """
    if not pmfs or len(pmfs) != len(deferred):
        raise ValueError("first_reply_law needs one deferred flag per pmf, at least one")
    _shared_quantum(pmfs)
    offset = min(pmf.offset for pmf in pmfs)
    bins = min(pmf.offset + pmf.mass.size for pmf in pmfs) - offset
    win = np.zeros((2, bins))
    all_later = np.ones(bins)  # Π_{j<i} P(X_j > t) over the replicas folded so far
    for pmf, flag in zip(pmfs, deferred):
        start = pmf.offset - offset
        width = max(0, min(bins - start, pmf.mass.size))
        mass = np.zeros(bins)
        later = np.ones(bins)  # P(X > t)
        mass[start : start + width] = pmf.mass[:width]
        later[start : start + width] = 1.0 - pmf._cumulative()[:width]
        if width == pmf.mass.size:
            later[start + width - 1] = 0.0  # the running sum may end a rounding off 1
        np.clip(later, 0.0, None, out=later)
        win *= later + mass
        win[int(bool(flag))] += mass * all_later
        all_later *= later
    return offset, win


# Combined operand size (in bins) above which a pairwise convolution goes
# through the FFT instead of the direct O(n*m) product.  Below it, direct
# convolution is both faster and exact — in particular, every pmf the §6
# testbed produces (sliding windows of 10–40 samples) stays far below the
# threshold, so the figure sweeps remain bit-identical to the direct path.
CONVOLVE_FFT_THRESHOLD = 1024


def _convolve_mass(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolve two mass arrays, via FFT when the operands are large.

    The FFT path introduces float noise of order 1e-15; masses are
    clipped to non-negative (DiscretePmf renormalizes on construction),
    and the property tests pin the result to the direct convolution
    within 1e-12.
    """
    if a.size + b.size < CONVOLVE_FFT_THRESHOLD:
        return np.convolve(a, b)
    try:
        from scipy.signal import fftconvolve

        out = fftconvolve(a, b)
    except ImportError:  # pragma: no cover - scipy is a baked-in dependency
        n = a.size + b.size - 1
        nfft = 1 << (n - 1).bit_length()
        out = np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:n]
    return np.clip(out, 0.0, None)


def convolve_all(pmfs: Sequence[DiscretePmf]) -> DiscretePmf:
    """Convolve a sequence of pmfs (sum of independent variables).

    Small inputs (total support below :data:`CONVOLVE_FFT_THRESHOLD`)
    take the historical left fold over :meth:`DiscretePmf.convolve`,
    which is exact and bit-stable.  Large inputs switch to a balanced
    tree reduction — pairing off neighbours keeps operand sizes even, so
    the total work is O(S log k) with FFT pairs instead of the left
    fold's O(S^2) for k pmfs of total support S.
    """
    if not pmfs:
        raise ValueError("convolve_all needs at least one pmf")
    quantum = _shared_quantum(pmfs)
    if sum(p.mass.size for p in pmfs) < CONVOLVE_FFT_THRESHOLD:
        result = pmfs[0]
        for pmf in pmfs[1:]:
            result = result.convolve(pmf)
        return result
    level: list[tuple[int, np.ndarray]] = [(p.offset, p.mass) for p in pmfs]
    while len(level) > 1:
        next_level = []
        for i in range(0, len(level) - 1, 2):
            (off_a, mass_a), (off_b, mass_b) = level[i], level[i + 1]
            next_level.append((off_a + off_b, _convolve_mass(mass_a, mass_b)))
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    offset, mass = level[0]
    return DiscretePmf(quantum, offset, mass)
