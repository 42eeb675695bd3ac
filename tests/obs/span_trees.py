"""Request-span trees rebuilt from trace records, for the span tests.

``repro.obs.spans`` emits spans as trace records; nothing in the package
reads them back as trees, so the reader lives here with its only callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.obs.spans import SPAN_CATEGORY, span_root
from repro.sim.tracing import Trace, TraceRecord

_RESERVED = ("span", "parent", "name")


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
