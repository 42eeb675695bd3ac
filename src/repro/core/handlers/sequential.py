"""The sequential consistency handler (§4.1).

Every update is committed by every (serving) primary replica in the order
of its Global Sequence Number, assigned by the *sequencer* — the leader of
the primary group, which "merely serves as the sequencer and does not
actually service the client's request".  Secondary replicas never execute
updates; a designated primary, the *lazy publisher*, multicasts its state
to the secondary group every ``lazy_update_interval`` (T_L) seconds.

The sequencer services no request, but it applies each update it
sequences to its own copy, in GSN order and outside the service queue:
that copy is the one state-transfer donor (DESIGN.md §9).

Reads are stamped with the current GSN (not advanced) by the sequencer.  A
replica serves a read once its staleness ``GSN_read − my_CSN`` is within
the client's threshold; a too-stale secondary performs a *deferred read* —
it buffers the request and answers right after the next lazy update,
recording the buffering time ``t_b`` the client-side model uses for
``F^D_R`` (§5.2.2).

The handler keeps this pipeline; collaborators own the rest.  Failover and
recovery — sequencer sync, state transfer, the commit-gap watchdog — are
:class:`~repro.core.handlers.catchup.CatchUp`'s; ``T_L`` is written by
:class:`~repro.core.tuning.LazyIntervalTuner` alone; and a configured
φ-detector (:class:`~repro.core.detector.ReplicaDetector`) watches for a
gray publisher.  Replicas whose buffered reads never received a GSN
re-request it from the current sequencer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from repro.core.detector import ReplicaDetector
from repro.core.handlers.catchup import CatchUp
from repro.core.replica import PendingRequest, ReplicaHandlerBase
from repro.core.requests import (
    GsnAssign,
    GsnQuery,
    GsnSkip,
    LazyUpdate,
    PublisherSuspicion,
    Request,
    RequestKind,
    SequencerSyncRequest,
    StalenessInfo,
    StateTransferRequest,
    StateTransferSnapshot,
)
from repro.core.tuning import LazyIntervalTuner
from repro.groups.membership import View
from repro.obs.spans import emit_span, span_root
from repro.sim.kernel import Event

_ASSIGNMENT_CACHE = 8192  # bounded memory for request-id -> GSN bindings
_RECENT_COMMITS = 2048  # bounded tail used for failover catch-up


class SequentialReplicaHandler(ReplicaHandlerBase):
    """Server-side gateway handler providing sequential consistency."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        config = self.config
        self.gsn_wait_timeout = config.gsn_wait_timeout

        # §4.1: the pair of protocol variables every gateway handler keeps.
        self.my_gsn = 0
        self.my_csn = 0

        self._assignments: OrderedDict[int, int] = OrderedDict()
        self._update_assignments: OrderedDict[int, int] = OrderedDict()
        self._recent_commits: OrderedDict[int, int] = OrderedDict()
        self._awaiting_gsn: dict[int, PendingRequest] = {}
        # Request id -> the armed _gsn_retry of a read in _awaiting_gsn.
        self._gsn_retries: dict[int, Event] = {}
        self._commit_wait: dict[int, PendingRequest] = {}
        self._update_in_flight: Optional[int] = None
        self._stale_wait: list[tuple[int, PendingRequest]] = []
        self._deferred: list[PendingRequest] = []
        self._skips: set[int] = set()

        # Staleness accounting (§5.4.1).
        self._updates_since_lazy = 0
        self._updates_since_perf = 0
        self._perf_anchor = 0.0
        self.tuner = LazyIntervalTuner(self, config.adaptive_lazy_target)

        self.gsn_queries_sent = self._counter("replica_gsn_queries_sent")
        self._m_reassignments = self._counter("replica_reassignments")
        self.catchup = CatchUp(self)
        # Gray-failure detection (DESIGN.md §14), default-off.  Both
        # publisher series are registered whether or not it runs.
        self.detector: Optional[ReplicaDetector] = (
            None if config.detector is None else ReplicaDetector(config.detector, self)
        )
        self.publisher_suspicions = self._counter("replica_publisher_suspicions")
        self.publisher_reassignments = self._counter("replica_publisher_reassignments")

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------
    @property
    def lazy_publisher_name(self) -> Optional[str]:
        """The designated publisher: the first non-leader primary member.

        The sequencer (rank 0) does not serve requests, so it cannot be
        the publisher; rank order makes the designation deterministic and
        view changes re-designate automatically.  A slow-publisher
        reassignment (detector-driven, DESIGN.md §14) overrides the rank
        designation until the next primary view change.
        """
        members = self.primary_view.members
        if self.detector is not None:
            reassigned = self.detector.publisher(members)
            if reassigned is not None:
                return reassigned
        if len(members) >= 2:
            return members[1]
        return members[0] if members else None

    def staleness(self) -> int:
        """Current staleness in versions: ``my_GSN − my_CSN`` (§4.1.2)."""
        return max(0, self.my_gsn - self.my_csn)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attached(self, network, host) -> None:
        super().attached(network, host)  # arms the lazy tick
        self._perf_anchor = self.now
        self.catchup.start_gap_grid()
        if self.detector is not None:
            self.detector.start()
        self.tuner.start()

    def on_view_change(self, view: View, previous: Optional[View]) -> None:
        if view.group != self.groups.primary:
            return
        if self.detector is not None:
            # Membership changed: forget the slow-publisher reports; the
            # new view's rank designation holds until the next one.
            self.detector.publisher_suspects.clear()
        self.catchup.on_primary_view(view, previous)

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------
    def on_group_message(self, group: str, sender: str, payload: Any) -> None:
        if isinstance(payload, Request):
            self._on_request(payload)
        elif isinstance(payload, GsnAssign):
            self._on_assign(payload)
        elif isinstance(payload, LazyUpdate):
            self._on_lazy_update(payload)
        elif isinstance(payload, GsnQuery):
            self._on_gsn_query(payload)
        elif isinstance(payload, SequencerSyncRequest):
            self.catchup.on_sync_request(payload)
        elif isinstance(payload, StateTransferRequest):
            self.catchup.on_state_transfer_request(payload)
        elif isinstance(payload, StateTransferSnapshot):
            self.catchup.on_snapshot(payload)
        elif isinstance(payload, GsnSkip):
            self._on_skip(payload)
        elif isinstance(payload, PublisherSuspicion):
            # Only a secondary with a detector reports, and the detector
            # is configured service-wide.
            self.detector.on_publisher_suspicion(payload)
        else:
            self.trace.emit(
                self.now, "replica.unknown-payload", self.name, kind=type(payload).__name__
            )

    # ------------------------------------------------------------------
    # Request arrival (§4.1.1 updates, §4.1.2 reads)
    # ------------------------------------------------------------------
    def _on_request(self, request: Request) -> None:
        if request.kind is RequestKind.UPDATE:
            if self.is_primary:
                self._updates_since_lazy += 1
                self._updates_since_perf += 1
                self.tuner.updates += 1
            if self.is_sequencer:
                self._sequence_update(request)
            elif self.is_primary:
                self._buffer_for_gsn(request)
            else:
                self.trace.emit(
                    self.now, "replica.misrouted-update", self.name,
                    request_id=request.request_id,
                )
        else:
            if self.is_sequencer:
                self._sequence_read(request)
            elif self.is_primary or self.is_secondary:
                self._buffer_for_gsn(request)

    def _sequence_update(self, request: Request) -> None:
        """Sequencer role: advance the GSN, broadcast the assignment, and
        bind the update into the sequencer's own committed copy."""
        if self.catchup.syncing:
            self.catchup.held.append(request)
            return
        self.my_gsn += 1
        assign = GsnAssign(request.request_id, self.my_gsn, advances=True)
        self._remember_assignment(request.request_id, self.my_gsn, update=True)
        self.gmcast(self.groups.primary, assign, size_bytes=64)
        self._trace_sequenced(request, "sequencer.assign", advances=True)
        self._bind(PendingRequest(request=request, arrived_at=self.now), self.my_gsn)
        self.catchup.watch_gap()

    def _sequence_read(self, request: Request) -> None:
        """Sequencer role: stamp the read with the current GSN, unadvanced,
        at the replicas it names — at every replica when it names none.  A
        named replica this view lacks asks for its stamp (:meth:`_gsn_retry`).
        """
        assign = GsnAssign(request.request_id, self.my_gsn, advances=False)
        only = request.targets
        self.gmcast(self.groups.primary, assign, size_bytes=64, only=only)
        self.gmcast(self.groups.secondary, assign, size_bytes=64, only=only)
        self._trace_sequenced(request, "sequencer.stamp", advances=False)

    def _trace_sequenced(self, request: Request, category: str, advances: bool) -> None:
        if self.trace.enabled:
            rid = request.request_id
            emit_span(
                self.trace, self.now, self.name, f"{span_root(rid)}/q",
                "sequence", gsn=self.my_gsn, advances=advances,
            )
            self.trace.emit(self.now, category, self.name, request_id=rid, gsn=self.my_gsn)

    def _buffer_for_gsn(self, request: Request) -> None:
        pending = PendingRequest(request=request, arrived_at=self.now)
        gsn = self._assignments.get(request.request_id)
        if gsn is not None:
            self._bind(pending, gsn)
        else:
            self._awaiting_gsn[request.request_id] = pending
            if request.kind is RequestKind.READ:
                self._gsn_retries[request.request_id] = self.sim.schedule(
                    self.gsn_wait_timeout, self._gsn_retry, request.request_id
                )

    def _gsn_retry(self, request_id: int) -> None:
        """Re-request a read's GSN if the stamp never arrived (failover).
        The stamp that binds the read cancels this (:meth:`_on_assign`)."""
        pending = self._awaiting_gsn.get(request_id)
        if pending is None or not self.up:
            self._gsn_retries.pop(request_id, None)
            return
        sequencer = self.sequencer_name
        if sequencer is not None and sequencer != self.name:
            self.gsend(
                self.groups.qos, sequencer, GsnQuery(request_id, self.name),
                size_bytes=64,
            )
            self.gsn_queries_sent.inc()
        self._gsn_retries[request_id] = self.sim.schedule(
            self.gsn_wait_timeout, self._gsn_retry, request_id
        )

    def _on_gsn_query(self, query: GsnQuery) -> None:
        if not self.is_sequencer:
            return
        assign = GsnAssign(query.request_id, self.my_gsn, advances=False)
        self.gsend(self.groups.qos, query.replica, assign, size_bytes=64)

    # ------------------------------------------------------------------
    # GSN assignment handling
    # ------------------------------------------------------------------
    def _remember_assignment(self, request_id: int, gsn: int, update: bool) -> None:
        self._assignments[request_id] = gsn
        while len(self._assignments) > _ASSIGNMENT_CACHE:
            self._assignments.popitem(last=False)
        if update:
            self._update_assignments[request_id] = gsn
            while len(self._update_assignments) > _ASSIGNMENT_CACHE:
                self._update_assignments.popitem(last=False)

    def _on_assign(self, assign: GsnAssign) -> None:
        if self.detector is not None:
            # Sequencer progress: sizes the commit-gap watchdog.
            self.detector.record("gsn-assign", self.now)
        if assign.advances and assign.request_id in self._recent_commits:
            return  # already committed; a failover re-broadcast
        previous = self._assignments.get(assign.request_id)
        if assign.advances and previous is not None and previous != assign.gsn:
            # Failover reassignment: rebind the buffered update.
            waiting = self._commit_wait.pop(previous, None)
            self._remember_assignment(assign.request_id, assign.gsn, update=True)
            self._m_reassignments.inc()
            if waiting is not None:
                waiting.gsn = assign.gsn
                self._commit_wait[assign.gsn] = waiting
                self._drain_commit_queue()
            return
        self._remember_assignment(assign.request_id, assign.gsn, update=assign.advances)
        pending = self._awaiting_gsn.pop(assign.request_id, None)
        if pending is not None:
            retry = self._gsn_retries.pop(assign.request_id, None)
            if retry is not None:
                retry.cancel()
            self._bind(pending, assign.gsn)

    def _on_skip(self, skip: GsnSkip) -> None:
        for gsn in skip.gsns:
            if gsn > self.my_csn:
                self._skips.add(gsn)
        self._drain_commit_queue()

    def _bind(self, pending: PendingRequest, gsn: int) -> None:
        """Apply a GSN to a buffered request and route it onward."""
        pending.gsn = gsn
        if pending.request.kind is RequestKind.UPDATE:
            self._commit_wait[gsn] = pending
            self._drain_commit_queue()
            return
        # Read: measure staleness against the stamped GSN (§4.1.2).
        self.my_gsn = max(self.my_gsn, gsn)
        self.catchup.watch_gap()
        staleness = max(0, gsn - self.my_csn)
        threshold = pending.request.staleness_threshold
        if staleness <= threshold:
            self.enqueue_ready(pending)
        elif self.is_secondary:
            if (
                self.overload is not None
                and self.overload.defer_capacity is not None
                and len(self._deferred) >= self.overload.defer_capacity
            ):
                self._shed(pending, "defer-full")
                return
            pending.defer_started_at = self.now
            self._deferred.append(pending)
            if self.overload is not None:
                qos = pending.request.qos
                if qos is not None:
                    # Bounce the read the moment its own deadline passes
                    # (a late reply is a timing failure either way; an
                    # explicit OverloadReply lets the client re-dispatch).
                    delay = max(
                        0.0, pending.request.sent_at + qos.deadline - self.now
                    )
                    self.sim.schedule(
                        delay, self._expire_deferred, pending.request.request_id
                    )
            if self.trace.enabled:
                rid = pending.request.request_id
                emit_span(
                    self.trace, self.now, self.name,
                    f"{span_root(rid)}/b/{self.name}", "defer",
                    staleness=staleness, threshold=threshold,
                    gsn=gsn, csn=self.my_csn,
                )
            self.trace.emit(
                self.now, "replica.defer", self.name,
                request_id=pending.request.request_id,
                staleness=staleness, threshold=threshold,
            )
        else:
            # A primary that is transiently behind: serve once enough
            # updates commit (its state converges without lazy updates).
            pending.stale_wait_started_at = self.now
            self._stale_wait.append((gsn - threshold, pending))

    # ------------------------------------------------------------------
    # Commit ordering
    # ------------------------------------------------------------------
    def _drain_commit_queue(self) -> None:
        # A recovering replica commits nothing: the snapshot it awaits
        # supersedes its state, and would land under an update in service.
        while self._update_in_flight is None and not self.catchup.recovering:
            nxt = self.my_csn + 1
            if nxt in self._skips:
                self._skips.discard(nxt)
                self.my_csn = nxt
                continue
            pending = self._commit_wait.pop(nxt, None)
            if pending is None:
                return
            if self.is_sequencer:
                # The sequencer's committed copy: applied outside the
                # service queue, so it sends no reply and draws nothing.
                self._commit(pending)
                self._drain_stale_waiters()
                continue
            self._update_in_flight = nxt
            self.enqueue_ready(pending)
            return

    def _commit(self, pending: PendingRequest) -> Any:
        """Apply an update at its GSN and advance the commit frontier."""
        assert pending.gsn is not None
        value = self.app.invoke(pending.request.method, pending.request.args)
        self.my_csn = pending.gsn
        self.my_gsn = max(self.my_gsn, self.my_csn)
        self._recent_commits[pending.request.request_id] = pending.gsn
        while len(self._recent_commits) > _RECENT_COMMITS:
            self._recent_commits.popitem(last=False)
        return value

    def execute(self, pending: PendingRequest) -> Any:
        if pending.request.kind is RequestKind.UPDATE:
            self.updates_committed.inc()
            return self._commit(pending)
        return super().execute(pending)

    def after_complete(self, pending: PendingRequest) -> None:
        if pending.request.kind is RequestKind.UPDATE:
            self._update_in_flight = None
            self._drain_commit_queue()
            self._drain_stale_waiters()

    def _drain_stale_waiters(self) -> None:
        if not self._stale_wait:
            return
        still_waiting = []
        for required_csn, pending in self._stale_wait:
            if self.my_csn >= required_csn:
                if pending.stale_wait_started_at is not None:
                    # Attribution: a behind primary's freshness wait is
                    # commit-queue drain time (DESIGN.md §15).
                    pending.stale_wait = (
                        self.now - pending.stale_wait_started_at
                    )
                self.enqueue_ready(pending)
            else:
                still_waiting.append((required_csn, pending))
        self._stale_wait = still_waiting

    def committed_gsn(self) -> int:
        return self.my_csn

    # ------------------------------------------------------------------
    # Lazy update propagation (§3, §4.1.2)
    # ------------------------------------------------------------------
    def after_lazy_tick(self) -> None:
        # Every primary resets with the shared tick, so the ``n_l`` a
        # newly promoted publisher announces is already aligned.
        self._updates_since_lazy = 0

    def _on_lazy_update(self, update: LazyUpdate) -> None:
        if not self.is_secondary:
            return
        if self.detector is not None:
            self.detector.heard_publisher()
        if update.csn > self.my_csn:
            self.app.restore(update.snapshot)
            self.my_csn = update.csn
            self.my_gsn = max(self.my_gsn, update.csn)
            self.lazy_updates_applied.inc()
        # §4.1.2: deferred reads are answered "immediately after receiving
        # the next state update from the lazy publisher".
        deferred, self._deferred = self._deferred, []
        for pending in deferred:
            assert pending.defer_started_at is not None
            pending.tb = self.now - pending.defer_started_at
            # Staleness attribution (DESIGN.md §15): the defer wait splits
            # into the time spent waiting for the publisher to *send*
            # (lazy-publisher lag) and the time the update spent in flight
            # (network delay).  An update already in flight when the read
            # deferred charges the whole wait to the network.
            published = (
                update.published_at
                if update.published_at is not None
                else self.now
            )
            pending.lazy_wait = max(0.0, published - pending.defer_started_at)
            pending.net_wait = self.now - max(
                pending.defer_started_at, published
            )
            self.enqueue_ready(pending)

    # ------------------------------------------------------------------
    # Deferred-read expiry and cleanup (DESIGN.md §11)
    # ------------------------------------------------------------------
    def _expire_deferred(self, request_id: int) -> None:
        """The owning client's deadline passed while the read sat deferred.

        A no-op when the read was already drained by a lazy update (it is
        no longer in the buffer) or the replica is down (recovery cleanup
        bounces whatever remains).
        """
        if not self.up:
            return
        for i, pending in enumerate(self._deferred):
            if pending.request.request_id == request_id:
                del self._deferred[i]
                self._shed(pending, "defer-expired")
                return

    def flush_pending(self) -> None:
        """Crash-recovery flush also bounces every deferred read with an
        explicit :class:`~repro.core.requests.OverloadReply`, so a client
        neither waits out a timing failure nor, after the next lazy update,
        gets a zombie reply to a request it has long since written off."""
        super().flush_pending()
        dropped, self._deferred = self._deferred, []
        for pending in dropped:
            if self.up and self.network is not None:
                self._shed(pending, "defer-dropped-recovery")

    # ------------------------------------------------------------------
    # Staleness broadcast fields (§5.4.1)
    # ------------------------------------------------------------------
    def staleness_info(self) -> Optional[StalenessInfo]:
        """Publisher-only extra fields; resets the ``n_u`` window.

        Called exactly once per performance broadcast by the base class.
        """
        if not self.is_lazy_publisher:
            return None
        info = StalenessInfo(
            n_u=self._updates_since_perf,
            t_u=self.now - self._perf_anchor,
            n_l=self._updates_since_lazy,
            t_l=self.now - self._last_lazy_at,
            # Clients need T_L for the t_l modulo of §5.4.1.
            lazy_interval=self.tuner.announced(),
        )
        self._updates_since_perf = 0
        self._perf_anchor = self.now
        return info

