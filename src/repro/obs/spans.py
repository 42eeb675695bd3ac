"""Request-span tracing layered on :mod:`repro.sim.tracing`.

A *span* is a trace record in category ``"span"`` whose detail dict carries
three reserved keys — ``span`` (the span id), ``parent`` (the parent span id
or ``None``), and ``name`` (what happened) — plus free-form annotations
(GSN/CSN, staleness, deadline, response time, ...).  Spans ride the existing
:class:`~repro.sim.tracing.Trace` transport, so capacity limits and
``to_jsonl`` artifact dumps apply unchanged, and disabling the trace
disables span emission with it.

Span-id scheme (all ids derive from the request id, so they survive process
boundaries and need no global coordination):

=========================  =====================================================
``req-<rid>``              root span, one per read/update (name ``read``/``update``)
``req-<rid>/d<n>``         n-th dispatch of the request to some target
                           (annotations: ``target``, ``reason`` — ``select``,
                           ``sequencer``, ``hedge``, ``update``, ``timeout``,
                           ``failover``)
``req-<rid>/q``            sequencer stamp/assign (annotations: ``gsn``, ...)
``req-<rid>/s/<replica>``  replica serve/complete (``ts``, ``tq``, ``tb``,
                           ``gsn``, ``staleness``, ``deferred``)
``req-<rid>/b/<replica>``  deferred-read buffering at a replica
``req-<rid>/r``            first reply accepted by the client
``req-<rid>/j``            the judgement (``timely``, ``predicted``)
=========================  =====================================================

Replica-side emitters don't know which dispatch span carried the request to
them, so they emit with ``parent=None`` and :func:`build_span_trees` stitches
them under the latest prior dispatch span whose ``target`` matches the
emitting actor — exactly the message edge the simulator delivered on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.sim.tracing import Trace, TraceRecord

__all__ = [
    "SPAN_CATEGORY",
    "Span",
    "span_root",
    "emit_span",
    "request_id_of",
    "build_span_trees",
]

SPAN_CATEGORY = "span"

_RESERVED = ("span", "parent", "name")


def span_root(request_id: int) -> str:
    """Root span id for a request."""
    return f"req-{request_id}"


def emit_span(
    trace: Trace,
    time: float,
    actor: str,
    span_id: str,
    name: str,
    parent_id: Optional[str] = None,
    **annotations,
) -> None:
    """Emit one span record through ``trace`` (no-op when tracing is off)."""
    trace.emit(
        time, SPAN_CATEGORY, actor,
        span=span_id, parent=parent_id, name=name, **annotations,
    )


def request_id_of(span_id: str) -> Optional[int]:
    """Extract the request id from any span id, or ``None`` if malformed."""
    if not span_id.startswith("req-"):
        return None
    head = span_id[4:].split("/", 1)[0]
    try:
        return int(head)
    except ValueError:
        return None


@dataclass
class Span:
    """One node of a reconstructed request tree."""

    span_id: str
    name: str
    actor: str
    time: float
    parent_id: Optional[str]
    annotations: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def find(self, name: str) -> List["Span"]:
        """All descendants (including self) with the given span name."""
        hits = [self] if self.name == name else []
        for child in self.children:
            hits.extend(child.find(name))
        return hits

    def to_dict(self) -> dict:
        return {
            "span": self.span_id,
            "name": self.name,
            "actor": self.actor,
            "time": self.time,
            "annotations": dict(self.annotations),
            "children": [c.to_dict() for c in self.children],
        }


def _is_dispatch(span: Span) -> bool:
    return "/d" in span.span_id and "target" in span.annotations


def build_span_trees(source) -> Dict[int, Span]:
    """Reconstruct one tree per request from span records.

    ``source`` is a :class:`Trace` or an iterable of
    :class:`~repro.sim.tracing.TraceRecord`.  Returns ``{request_id: root}``;
    requests whose root record was dropped are skipped.

    Stitching rules, in priority order:

    1. explicit ``parent`` pointing at a known span;
    2. replica-side spans (no parent): the latest dispatch span of the same
       request with ``target == actor`` and ``time <= span.time``;
    3. otherwise the request's root span.
    """
    records: Iterable[TraceRecord]
    records = source.records if isinstance(source, Trace) else source

    spans: Dict[str, Span] = {}
    order: List[Span] = []
    for record in records:
        if record.category != SPAN_CATEGORY:
            continue
        detail = record.detail
        span = Span(
            span_id=detail["span"],
            name=detail.get("name", ""),
            actor=record.actor,
            time=record.time,
            parent_id=detail.get("parent"),
            annotations={k: v for k, v in detail.items() if k not in _RESERVED},
        )
        spans[span.span_id] = span
        order.append(span)

    roots: Dict[int, Span] = {}
    dispatches: Dict[int, List[Span]] = {}
    for span in order:
        rid = request_id_of(span.span_id)
        if rid is None:
            continue
        if span.span_id == span_root(rid):
            roots[rid] = span
        elif _is_dispatch(span):
            dispatches.setdefault(rid, []).append(span)

    for span in order:
        rid = request_id_of(span.span_id)
        if rid is None or span.span_id == span_root(rid):
            continue
        parent: Optional[Span] = None
        if span.parent_id is not None:
            parent = spans.get(span.parent_id)
        if parent is None:
            for candidate in reversed(dispatches.get(rid, ())):
                if (
                    candidate.annotations.get("target") == span.actor
                    and candidate.time <= span.time
                ):
                    parent = candidate
                    break
        if parent is None:
            parent = roots.get(rid)
        if parent is not None and parent is not span:
            parent.children.append(span)

    return roots
