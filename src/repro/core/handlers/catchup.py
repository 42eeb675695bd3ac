"""Catch-up for the sequential handler (DESIGN.md §9).

The paper omits failure handling "due to the space constraint"; this is
our completion.  A replica that inherits the sequencer role from a
departed leader *syncs*: it collects every primary's state, adopts the
furthest, re-broadcasts assignments others missed, declares unfillable
GSNs as no-op skips, and assigns fresh GSNs to updates that never got one.
A rejoining primary fetches the sequencer's committed copy by *state
transfer*.  A *commit-gap watchdog*, running only while the GSN is past
the CSN, starts one of the two when a commit frontier freezes behind a
hole.  Both rounds install members'
:class:`~repro.core.requests.StateTransferSnapshot` through one routine,
:meth:`CatchUp._adopt`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.replica import PendingRequest
from repro.core.requests import (
    GsnAssign,
    GsnSkip,
    Request,
    RequestKind,
    SequencerSyncRequest,
    StateTransferRequest,
    StateTransferSnapshot,
)
from repro.groups.membership import Grid, View

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.handlers.sequential import SequentialReplicaHandler

# How long a new sequencer waits for survivors' GSN state, and the retry
# period of a state-transfer request.
SYNC_TIMEOUT = 0.3
# The commit-gap watchdog's period without a φ-detector.
GAP_PERIOD = 2 * SYNC_TIMEOUT


class CatchUp:
    """One sequential replica's sync rounds, state transfers and watchdog."""

    def __init__(self, handler: "SequentialReplicaHandler") -> None:
        self.handler = handler
        # Sequencer sync: whether this replica holds the role, the round in
        # flight, the members' answers, and updates held until it ends.
        self.sequencer_active = False
        self.syncing = False
        self._sync_id = 0
        self._sync_replies: dict[str, StateTransferSnapshot] = {}
        self.held: list[Request] = []
        # State transfer (primary recovery).
        self.recovering = False
        self.xfer_id = 0
        counter = handler._counter
        self.state_transfers_started = counter("replica_state_transfers_started")
        self.state_transfers_completed = counter("replica_state_transfers_completed")
        self.state_transfers_served = counter("replica_state_transfers_served")
        # Commit-gap watchdog: the instants its chain walks without a
        # detector, the frontier the last check saw blocked, and the next
        # check (None while the watchdog idles).
        self._gap_grid: Optional[Grid] = None
        self._gap_stuck_csn: Optional[int] = None
        self.gap_watch_event = None

    def snapshot(self, xfer_id: int) -> StateTransferSnapshot:
        """This member's committed state and sequencing facts, answering
        sync round or transfer attempt ``xfer_id``."""
        handler = self.handler
        assignments = dict(handler._update_assignments)
        assignments.update(handler._recent_commits)
        return StateTransferSnapshot(
            member=handler.name,
            xfer_id=xfer_id,
            csn=handler.my_csn,
            max_gsn=max(handler.my_gsn, handler.my_csn),
            snapshot=handler.app.snapshot(),
            commit_wait=tuple(
                (gsn, pending.request)
                for gsn, pending in sorted(handler._commit_wait.items())
            ),
            unassigned=tuple(
                pending.request
                for _, pending in sorted(handler._awaiting_gsn.items())
                if pending.request.kind is RequestKind.UPDATE
            ),
            assignments=tuple(sorted(assignments.items(), key=lambda kv: kv[1])),
            skips=tuple(sorted(g for g in handler._skips if g > handler.my_csn)),
        )

    def _adopt(self, members: list[StateTransferSnapshot]) -> None:
        """Install the furthest of ``members``' committed copies — never
        rolling back, and not under an update in service here — then bind
        every uncommitted ``(gsn, Request)`` suffix above our CSN (updates
        whose client multicast we missed, replayed in GSN order once the
        queue drains), and raise our GSN to the highest any member saw."""
        handler = self.handler
        furthest = max(members, key=lambda m: m.csn)
        if furthest.csn >= handler.my_csn and handler._update_in_flight is None:
            handler.app.restore(furthest.snapshot)
            handler.my_csn = furthest.csn
        commit_wait = handler._commit_wait
        for member in members:
            for gsn, request in member.commit_wait:
                if gsn > handler.my_csn and gsn not in commit_wait:
                    commit_wait[gsn] = PendingRequest(
                        request=request, arrived_at=handler.now, gsn=gsn
                    )
        handler.my_gsn = max(
            [handler.my_gsn, handler.my_csn] + [m.max_gsn for m in members]
        )
        self.watch_gap()

    # ------------------------------------------------------------------
    # Sequencer sync
    # ------------------------------------------------------------------
    def on_primary_view(self, view: View, previous: Optional[View]) -> None:
        """Take or drop the sequencer role.  A replica that inherits it
        from a departed leader recovers GSNs — whatever the view's size:
        a rejoin may land in the same view change."""
        name = self.handler.name
        if view.leader == name and not self.sequencer_active:
            self.sequencer_active = True
            if previous is not None and previous.leader not in (None, name):
                self._start_sync()
        elif view.leader != name:
            self.sequencer_active = False

    def _start_sync(self) -> None:
        handler = self.handler
        self.syncing = True
        self._sync_id += 1
        self._sync_replies = {handler.name: self.snapshot(self._sync_id)}
        handler.gmcast(
            handler.groups.primary,
            SequencerSyncRequest(handler.name, self._sync_id),
            size_bytes=64,
        )
        handler.sim.schedule(SYNC_TIMEOUT, self._finish_sync, self._sync_id)
        handler.trace.emit(
            handler.now, "sequencer.sync-start", handler.name, sync_id=self._sync_id
        )

    def on_sync_request(self, request: SequencerSyncRequest) -> None:
        handler = self.handler
        reply = self.snapshot(request.sync_id)
        handler.gsend(
            handler.groups.primary, request.new_sequencer, reply, size_bytes=2048
        )

    def on_snapshot(self, snap: StateTransferSnapshot) -> None:
        """A member's state answers a sync round while one runs, and a
        state-transfer request otherwise."""
        if self.syncing:
            self._on_sync_reply(snap)
        else:
            self._on_state_transfer_snapshot(snap)

    def _on_sync_reply(self, reply: StateTransferSnapshot) -> None:
        if reply.xfer_id != self._sync_id:
            return
        self._sync_replies[reply.member] = reply
        if set(self.handler.primary_view.members).issubset(self._sync_replies):
            self._finish_sync(self._sync_id)

    def _finish_sync(self, sync_id: int) -> None:
        if not self.syncing or sync_id != self._sync_id:
            return
        self.syncing = False
        handler = self.handler
        primary = handler.groups.primary
        replies = list(self._sync_replies.values())
        self._adopt(replies)
        union: dict[int, int] = {}
        for reply in replies:
            union.update(dict(reply.assignments))
        min_csn = min(r.csn for r in replies)
        # Re-broadcast assignments members may have missed.
        for rid, gsn in sorted(union.items(), key=lambda kv: kv[1]):
            if gsn > min_csn:
                assign = GsnAssign(rid, gsn, advances=True)
                handler.gmcast(primary, assign, size_bytes=64)
                self._bind_awaiting(rid, gsn)
        # GSNs nobody can attribute to a request become no-op skips.
        known = set(union.values())
        holes = tuple(
            g for g in range(min_csn + 1, handler.my_gsn + 1) if g not in known
        )
        if holes:
            handler.gmcast(primary, GsnSkip(holes), size_bytes=64)
            handler._on_skip(GsnSkip(holes))
        # Updates that never received a GSN get fresh ones, deterministically.
        fresh = sorted(
            {req.request_id for reply in replies for req in reply.unassigned}
            - set(union)
        )
        for rid in fresh:
            handler.my_gsn += 1
            handler._remember_assignment(rid, handler.my_gsn, update=True)
            assign = GsnAssign(rid, handler.my_gsn, advances=True)
            handler.gmcast(primary, assign, size_bytes=64)
            self._bind_awaiting(rid, handler.my_gsn)
        self.watch_gap()
        handler.trace.emit(
            handler.now, "sequencer.sync-done", handler.name,
            max_gsn=handler.my_gsn, holes=list(holes), fresh=fresh,
        )
        handler._drain_commit_queue()
        handler._drain_stale_waiters()
        # Serve anything that arrived mid-sync.
        held, self.held = self.held, []
        for request in held:
            handler._sequence_update(request)

    def _bind_awaiting(self, request_id: int, gsn: int) -> None:
        """Bind a buffered update to the GSN this sequencer just gave it:
        its own broadcast does not reach it."""
        pending = self.handler._awaiting_gsn.pop(request_id, None)
        if pending is not None:
            self.handler._bind(pending, gsn)

    # ------------------------------------------------------------------
    # Primary recovery via state transfer
    # ------------------------------------------------------------------
    def begin_state_transfer(self) -> None:
        """Start (or restart) snapshot catch-up from the sequencer.

        Called by the service when a crashed primary rejoins, and by the
        commit-gap watchdog.  Every local ordering buffer is flushed: the
        sequencer's snapshot supersedes anything buffered here, and clients
        learn outcomes from the surviving primaries' replies.
        """
        handler = self.handler
        self.recovering = True
        self.xfer_id += 1
        self.state_transfers_started.inc()
        self._disarm_gap_watchdog()
        handler.flush_pending()  # also bounces deferred reads explicitly
        handler._awaiting_gsn.clear()
        for retry in handler._gsn_retries.values():
            retry.cancel()
        handler._gsn_retries.clear()
        handler._commit_wait.clear()
        handler._stale_wait.clear()
        handler._update_in_flight = None
        handler.trace.emit(
            handler.now, "replica.state-transfer-start", handler.name,
            xfer_id=self.xfer_id,
        )
        self._request_state_transfer(self.xfer_id)

    def _request_state_transfer(self, xfer_id: int) -> None:
        handler = self.handler
        if not self.recovering or xfer_id != self.xfer_id or not handler.up:
            return
        sequencer = handler.sequencer_name
        if sequencer is None or sequencer == handler.name:
            # Nobody to ask: we lead (or the view is empty), so no peer
            # holds newer committed state.  Keep the retained state.
            self._recovered()
            handler.trace.emit(
                handler.now, "replica.state-transfer-done", handler.name,
                donor=None, csn=handler.my_csn, gsn=handler.my_gsn,
            )
            self.watch_gap()
            return
        request = StateTransferRequest(handler.name, xfer_id)
        handler.gsend(handler.groups.primary, sequencer, request, size_bytes=64)
        # Retry until a snapshot lands: the sequencer ignores requests from
        # members it does not (yet) see in its primary view, and it can fail
        # over mid-transfer (retries re-resolve the current leader).
        handler.sim.schedule(SYNC_TIMEOUT, self._request_state_transfer, xfer_id)

    def _recovered(self) -> None:
        self.recovering = False
        self.state_transfers_completed.inc()
        self.start_gap_grid()

    def on_state_transfer_request(self, request: StateTransferRequest) -> None:
        """The sequencer holds every update it sequenced, so its own copy
        serves every rejoiner — once the rejoin view change has reached it:
        answering earlier would let assignments made after the snapshot
        race past the requester, which retries until then."""
        handler = self.handler
        if not handler.is_sequencer:
            return
        if request.requester not in handler.primary_view.members:
            return
        reply = self.snapshot(request.xfer_id)
        self.state_transfers_served.inc()
        handler.gsend(handler.groups.primary, request.requester, reply, size_bytes=2048)
        handler.trace.emit(
            handler.now, "replica.state-transfer-serve", handler.name,
            requester=request.requester, csn=handler.my_csn,
        )

    def _on_state_transfer_snapshot(self, snap: StateTransferSnapshot) -> None:
        if not self.recovering or snap.xfer_id != self.xfer_id:
            return
        handler = self.handler
        self._recovered()
        self._adopt([snap])
        for rid, gsn in snap.assignments:
            handler._remember_assignment(rid, gsn, update=True)
        for gsn in snap.skips:
            if gsn > handler.my_csn:
                handler._skips.add(gsn)
        # Updates the sequencer has buffered but not yet assigned: buffer
        # them here too, so the upcoming GsnAssign (which will include us —
        # we are back in the sequencer's view) binds on both replicas.
        for request in snap.unassigned:
            if request.request_id not in handler._awaiting_gsn:
                handler._buffer_for_gsn(request)
        handler.trace.emit(
            handler.now, "replica.state-transfer-done", handler.name,
            donor=snap.member, csn=handler.my_csn, gsn=handler.my_gsn,
        )
        handler._drain_commit_queue()
        handler._drain_stale_waiters()

    # ------------------------------------------------------------------
    # Commit-gap watchdog
    # ------------------------------------------------------------------
    def start_gap_grid(self) -> None:
        """Start the watchdog's instants afresh: a period apart from now,
        on attach and at the end of each state transfer."""
        self._gap_grid = Grid(self.handler.now, GAP_PERIOD)

    def watch_gap(self) -> None:
        """Resume the idle watchdog if this primary's GSN is past its CSN:
        every site that raises the GSN calls this.  Without a detector it
        resumes at the next instant of its grid, the check a chain that
        never idled would make; with one, a period from now.

        The watchdog monitors the commit frontier for a hole no local
        action can fill: an assignment for ``my_csn + 1`` whose Request
        never arrived (say, multicast by a client whose view predated our
        rejoin).  Two checks without progress fetch the sequencer's
        snapshot, which commits past the hole; a sequencer promoted with a
        hole in its log re-syncs.  Every one of those acts needs
        ``my_gsn > my_csn``, so a check that finds the replica caught up
        ends the chain, and a state transfer in flight holds it."""
        handler = self.handler
        if (
            self.gap_watch_event is None
            and handler.my_gsn > handler.my_csn
            and not self.recovering
            and handler.has_joined(handler.groups.primary)
        ):
            self._gap_stuck_csn = None
            now = handler.now
            at = (
                self._gap_grid.first_after(now)
                if handler.detector is None
                else now + self.gap_delay()
            )
            self.gap_watch_event = handler.sim.schedule_at(at, self._gap_check)

    def _disarm_gap_watchdog(self) -> None:
        if self.gap_watch_event is not None:
            self.gap_watch_event.cancel()
            self.gap_watch_event = None

    def gap_delay(self) -> float:
        """Watchdog period: fixed :data:`GAP_PERIOD`, or with a detector
        the observed GSN-broadcast cadence (DESIGN.md §14)."""
        detector = self.handler.detector
        if detector is None:
            return GAP_PERIOD
        return detector.adaptive_timeout("gsn-assign", GAP_PERIOD)

    def _gap_check(self) -> None:
        handler = self.handler
        self.gap_watch_event = None
        if handler.network is None or self.recovering:
            return  # a state-transfer completion resumes the watchdog
        if not handler.has_joined(handler.groups.primary):
            return  # only a primary commits
        if handler.my_gsn <= handler.my_csn:
            return  # caught up: the next GSN past the CSN resumes the chain
        hole = handler.my_csn + 1
        blocked = (
            handler.up
            and handler.is_primary
            and handler._update_in_flight is None
            and hole not in handler._commit_wait
            and hole not in handler._skips
        )
        if blocked and self._gap_stuck_csn == handler.my_csn:
            # Two checks with a frozen frontier: no retransmission is coming.
            handler.trace.emit(handler.now, "replica.commit-gap", handler.name, gsn=hole)
            if not handler.is_sequencer:
                self.begin_state_transfer()
                return
            self._start_sync()
            blocked = False
        self._gap_stuck_csn = handler.my_csn if blocked else None
        self.gap_watch_event = handler.sim.schedule(self.gap_delay(), self._gap_check)
