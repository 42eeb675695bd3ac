"""The FIFO consistency handler (service B in Figure 2).

The paper's architecture shows per-service timed consistency handlers; it
details only the sequential one, but depicts a banking-style service using
FIFO ordering.  This handler implements that guarantee: updates from one
client are committed in the order that client issued them (which the
reliable per-pair FIFO group channel already provides), with no global
order across clients and therefore no sequencer.

Reads are stamped with the replica's local commit count and served
immediately; the per-replica commit counter still gives clients a version
number, and lazy propagation still keeps a secondary group loosely in sync
so the same probabilistic selection machinery applies (with the staleness
factor pinned to 1, as there is no global version to be stale against).
"""

from __future__ import annotations

from typing import Any

from repro.core.replica import PendingRequest, ReplicaHandlerBase
from repro.core.requests import LazyUpdate, Request, RequestKind


class FifoReplicaHandler(ReplicaHandlerBase):
    """Server-side gateway handler providing FIFO consistency."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.commit_count = 0

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def on_group_message(self, group: str, sender: str, payload: Any) -> None:
        if isinstance(payload, Request):
            self._on_request(payload)
        elif isinstance(payload, LazyUpdate):
            self._on_lazy_update(payload)

    def _on_request(self, request: Request) -> None:
        pending = PendingRequest(request=request, arrived_at=self.now)
        if request.kind is RequestKind.UPDATE:
            if self.is_primary:
                # Per-client FIFO arrival order *is* the commit order.
                self.enqueue_ready(pending)
        else:
            if self.is_primary or self.is_secondary:
                self.enqueue_ready(pending)

    def execute(self, pending: PendingRequest) -> Any:
        value = super().execute(pending)
        if pending.request.kind is RequestKind.UPDATE:
            self.commit_count += 1
            self.updates_committed.inc()
        return value

    def committed_gsn(self) -> int:
        return self.commit_count

    # ------------------------------------------------------------------
    # Lazy propagation: the primary leader publishes (no sequencer holds
    # rank 0), and a secondary adopts any snapshot ahead of its own count.
    # ------------------------------------------------------------------
    def _on_lazy_update(self, update: LazyUpdate) -> None:
        if not self.is_secondary:
            return
        if update.csn > self.commit_count:
            self.app.restore(update.snapshot)
            self.commit_count = update.csn
            self.lazy_updates_applied.inc()
