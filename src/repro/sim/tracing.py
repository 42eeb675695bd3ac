"""Structured event tracing.

Experiments and tests observe protocol behaviour through a :class:`Trace`:
components emit :class:`TraceRecord` entries (category, actor, detail dict)
and analyses filter them afterwards.  Tracing is optional everywhere: a
``Trace`` with ``enabled=False`` records nothing.  What it costs is decided
at the emitting site.  A site behind ``if trace.enabled:`` pays one
attribute check; a bare ``trace.emit(...)`` still evaluates its arguments
(a kwargs dict, the clock, any derived values) and makes the call, which
returns at once.  The sites every read or update passes (issue, GSN
assignment or stamp, completion, reply, lazy publication, delivery) are
guarded; a bare call is left only where an operation is deferred, shed,
retried or failed, or a fault or failover is handled.

An enabled record costs its keyword dict, one :class:`TraceRecord` (a
non-frozen ``slots`` dataclass, DESIGN.md §8) and one list append: about
0.6 µs for a three-key ``net.deliver`` and 1.5 µs for an ``emit_span``
on a 2-core Xeon VM, where a kernel event costs 3 µs.
``benchmarks/test_bench_guards.py`` prints both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional


@dataclass(slots=True, unsafe_hash=True)
class TraceRecord:
    """One traced event."""

    time: float
    category: str
    actor: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.time:.6f} {self.category} {self.actor} {self.detail}>"


class Trace:
    """An append-only log of :class:`TraceRecord` with simple queries."""

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.records: list[TraceRecord] = []
        self.dropped = 0

    def emit(self, time: float, category: str, actor: str, **detail: Any) -> None:
        """Record one event (no-op when disabled).

        ``dropped`` counts the records lost to the capacity limit.
        """
        if not self.enabled:
            return
        record = TraceRecord(time, category, actor, detail)
        capacity = self.capacity
        if capacity is None or len(self.records) < capacity:
            self.records.append(record)
        else:
            self.dropped += 1

    def filter(
        self, category: Optional[str] = None, actor: Optional[str] = None
    ) -> Iterator[TraceRecord]:
        """Iterate records matching the given category and/or actor."""
        for record in self.records:
            if category is not None and record.category != category:
                continue
            if actor is not None and record.actor != actor:
                continue
            yield record

    def count(self, category: Optional[str] = None, actor: Optional[str] = None) -> int:
        return sum(1 for _ in self.filter(category, actor))

    def last(
        self, category: Optional[str] = None, actor: Optional[str] = None
    ) -> Optional[TraceRecord]:
        match = None
        for record in self.filter(category, actor):
            match = record
        return match

    def to_jsonl(self) -> str:
        """Render the stored records as JSON Lines for artifact dumps.

        One object per record with ``time``/``category``/``actor`` and, when
        present, ``detail``.  Non-JSON-able detail values (enums, dataclass
        instances) fall back to ``str``.
        """
        lines = []
        for record in self.records:
            payload: dict[str, Any] = {
                "time": record.time,
                "category": record.category,
                "actor": record.actor,
            }
            if record.detail:
                payload["detail"] = record.detail
            lines.append(json.dumps(payload, default=str))
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0


NULL_TRACE = Trace(enabled=False)
