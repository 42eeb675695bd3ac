"""Logical clocks.

The paper measures staleness in *versions* using timestamps "based on
logical clocks" (Lamport [7]) so that no clock synchronization is needed
across replicas.  The GSN counter in the sequencer is one such logical
clock; this module provides the vector clock the causal handler stamps
updates with.
"""

from __future__ import annotations


class VectorClock:
    """A vector clock over named processes.

    Used by the causal consistency handler: each entry counts the updates
    of one writer that a state reflects.  The class is a value-ish type —
    mutating operations return ``self`` for chaining, and :meth:`copy`
    gives an independent snapshot for stamping messages.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: dict[str, int] | None = None) -> None:
        self._counts: dict[str, int] = {}
        if counts:
            for name, count in counts.items():
                if count < 0:
                    raise ValueError(f"negative count for {name!r}: {count!r}")
                if count > 0:
                    self._counts[name] = int(count)

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def increment(self, name: str) -> "VectorClock":
        self._counts[name] = self._counts.get(name, 0) + 1
        return self

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum (adopt everything the other clock has seen)."""
        for name, count in other._counts.items():
            if count > self._counts.get(name, 0):
                self._counts[name] = count
        return self

    def dominates(self, other: "VectorClock") -> bool:
        """True iff every entry of ``other`` is <= the matching entry here."""
        return all(
            self._counts.get(name, 0) >= count
            for name, count in other._counts.items()
        )

    def copy(self) -> "VectorClock":
        return VectorClock(dict(self._counts))

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def total(self) -> int:
        """Sum of entries — the number of updates this clock has seen."""
        return sum(self._counts.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(self._counts.items()))
        return f"VectorClock({{{inner}}})"
