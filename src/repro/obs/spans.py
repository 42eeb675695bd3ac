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
them, so they emit with ``parent=None``; a reader stitches them under the
latest prior dispatch span whose ``target`` matches the emitting actor —
exactly the message edge the simulator delivered on (the tests' tree
builder, ``tests/obs/span_trees.py``, does).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.tracing import Trace

__all__ = ["SPAN_CATEGORY", "span_root", "emit_span"]

SPAN_CATEGORY = "span"


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
