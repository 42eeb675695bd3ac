"""The causal consistency handler.

§2 lists causal ordering among the "well-known ordering guarantees that a
service can offer" alongside sequential and FIFO; the paper implements
only the sequential handler, so this one is our extension — built to slot
into the same Figure 2 gateway architecture.

Semantics (classic causal memory, vector-clock based):

* every client stamps its updates with ``CausalStamp(writer, seq, deps)``
  where ``deps`` is its vector clock — everything the client has written
  or observed through earlier reads;
* each primary commits an update only once its committed vector clock
  covers the update's dependencies and the writer's previous update
  (per-writer FIFO); concurrent updates may commit in different orders on
  different primaries, which causal consistency allows;
* replies carry the replica's committed vector clock; the client merges
  it, so a later update by this client causally follows everything the
  read reflected;
* a read also carries the client's vector clock, and a replica defers it
  until its state covers that clock — giving read-your-writes and
  monotonic reads, with the deferred-read accounting (``t_b``) feeding the
  same ``F^D`` machinery the sequential handler uses;
* lazy propagation ships ``(app snapshot, vector clock)``; a secondary
  adopts a snapshot only when the incoming clock dominates its own.

The reported version number (``Reply.gsn``) is the total of the vector
clock — the count of updates the state reflects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.client import ClientHandler
from repro.core.replica import PendingRequest, ReplicaHandlerBase
from repro.core.requests import LazyUpdate, Reply, Request, RequestKind
from repro.sim.clock import VectorClock


@dataclass(frozen=True)
class CausalStamp:
    """Dependency metadata a client attaches to an update."""

    writer: str
    seq: int  # the writer's update number, 1-based
    deps: dict  # vector clock snapshot at issue time

    def __post_init__(self) -> None:
        if self.seq < 1:
            raise ValueError(f"causal seq must be >= 1, got {self.seq!r}")


class CausalReplicaHandler(ReplicaHandlerBase):
    """Server-side gateway handler providing causal consistency."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.vc = VectorClock()
        self._blocked_updates: list[PendingRequest] = []
        self._blocked_reads: list[PendingRequest] = []
        self._update_in_flight = False
        self.causal_delays = 0  # updates that had to wait for dependencies

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
            if not self.is_primary:
                return
            if not isinstance(request.context, CausalStamp):
                raise TypeError(
                    f"causal update {request.request_id} lacks a CausalStamp "
                    "(use the causal client handler)"
                )
            self._blocked_updates.append(pending)
            self._release_updates()
        else:
            if not (self.is_primary or self.is_secondary):
                return
            deps = request.context
            if deps is not None and not self.vc.dominates(VectorClock(deps)):
                # The client has seen state we do not have yet: defer
                # until commits / lazy updates catch up (read-your-writes
                # and monotonic reads).
                pending.defer_started_at = self.now
                self._blocked_reads.append(pending)
            else:
                self.enqueue_ready(pending)

    def _update_ready(self, pending: PendingRequest) -> bool:
        stamp: CausalStamp = pending.request.context
        if self.vc.get(stamp.writer) != stamp.seq - 1:
            return False
        return self.vc.dominates(VectorClock(stamp.deps))

    def _release_updates(self) -> None:
        """Move causally-ready updates to the server queue, one at a time."""
        if self._update_in_flight:
            return
        for index, pending in enumerate(self._blocked_updates):
            if self._update_ready(pending):
                del self._blocked_updates[index]
                self._update_in_flight = True
                self.enqueue_ready(pending)
                return
        if self._blocked_updates:
            self.causal_delays += 1

    def _release_reads(self) -> None:
        still_blocked = []
        for pending in self._blocked_reads:
            deps = pending.request.context
            if deps is None or self.vc.dominates(VectorClock(deps)):
                assert pending.defer_started_at is not None
                pending.tb = self.now - pending.defer_started_at
                self.enqueue_ready(pending)
            else:
                still_blocked.append(pending)
        self._blocked_reads = still_blocked

    def execute(self, pending: PendingRequest) -> Any:
        value = super().execute(pending)
        if pending.request.kind is RequestKind.UPDATE:
            stamp: CausalStamp = pending.request.context
            self.vc.merge(VectorClock(stamp.deps))
            self.vc.increment(stamp.writer)
            self.updates_committed.inc()
        return value

    def after_complete(self, pending: PendingRequest) -> None:
        if pending.request.kind is RequestKind.UPDATE:
            self._update_in_flight = False
            self._release_updates()
            self._release_reads()

    def committed_gsn(self) -> int:
        return self.vc.total()

    def reply_context(self) -> dict:
        return self.vc.as_dict()

    # ------------------------------------------------------------------
    # Lazy propagation: the snapshot travels with its vector clock, and a
    # secondary adopts it only when that clock dominates its own.
    # ------------------------------------------------------------------
    def lazy_snapshot(self) -> tuple:
        return (self.app.snapshot(), self.vc.as_dict())

    def _on_lazy_update(self, update: LazyUpdate) -> None:
        if not self.is_secondary:
            return
        app_snapshot, vc_dict = update.snapshot
        incoming = VectorClock(vc_dict)
        if incoming.dominates(self.vc) and incoming.total() > self.vc.total():
            self.app.restore(app_snapshot)
            self.vc = incoming
            self.lazy_updates_applied.inc()
            self._release_reads()


class CausalClientHandler(ClientHandler):
    """Client-side handler maintaining the causal context.

    Tracks a vector clock covering the client's own writes plus everything
    its reads have reflected; stamps updates with ``CausalStamp`` and
    reads with the clock, and merges the clocks replies carry.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.vc = VectorClock()
        self._update_seq = 0

    def _update_context(self) -> CausalStamp:
        deps = self.vc.as_dict()
        self._update_seq += 1
        # Read-your-writes: the client's own clock includes the new write
        # the moment it is issued.
        self.vc.increment(self.name)
        return CausalStamp(writer=self.name, seq=self._update_seq, deps=deps)

    def _read_context(self) -> dict:
        return self.vc.as_dict()

    def _absorb_context(self, reply: Reply) -> None:
        if isinstance(reply.context, dict):
            self.vc.merge(VectorClock(reply.context))
