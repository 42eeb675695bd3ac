"""The sequential consistency handler (§4.1).

Every update is committed by every (serving) primary replica in the order
of its Global Sequence Number, assigned by the *sequencer* — the leader of
the primary group, which "merely serves as the sequencer and does not
actually service the client's request".  Secondary replicas never execute
updates; a designated primary, the *lazy publisher*, multicasts its state
to the secondary group every ``lazy_update_interval`` (T_L) seconds.

Reads are stamped with the current GSN (not advanced) by the sequencer.  A
replica serves a read once its staleness ``GSN_read − my_CSN`` is within
the client's threshold; a too-stale secondary performs a *deferred read* —
it buffers the request and answers right after the next lazy update,
recording the buffering time ``t_b`` the client-side model uses for
``F^D_R`` (§5.2.2).

Failure handling (the paper omits the details "due to the space
constraint"; DESIGN.md documents our completion): on sequencer crash, the
new primary-group leader collects GSN state from survivors, adopts the
maximum, re-broadcasts assignments others missed, declares unfillable GSNs
as no-op skips, and assigns fresh GSNs to updates that never got one.  The
lazy-publisher role follows view rank automatically, and replicas whose
buffered reads never received a GSN re-request it from the current
sequencer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from repro.core.detector import PhiAccrualDetector
from repro.core.replica import PendingRequest, ReplicaHandlerBase
from repro.core.requests import (
    GsnAssign,
    GsnQuery,
    GsnSkip,
    LazyUpdate,
    PublisherSuspicion,
    Request,
    RequestKind,
    SequencerSyncReply,
    SequencerSyncRequest,
    StalenessInfo,
    StateTransferRelay,
    StateTransferRequest,
    StateTransferSnapshot,
)
from repro.core.tuning import AdaptiveLazyController
from repro.groups.group import ACK_ROUND_TRIP_MARGIN
from repro.groups.membership import View, walk_grid
from repro.obs.spans import emit_span, span_root

_ASSIGNMENT_CACHE = 8192  # bounded memory for request-id -> GSN bindings
_RECENT_COMMITS = 2048  # bounded tail used for failover catch-up
# How long a new sequencer waits for survivors' GSN state, and the retry
# period of a state-transfer request; twice this is the fixed commit-gap
# watchdog period.
_SYNC_TIMEOUT = 0.3


class SequentialReplicaHandler(ReplicaHandlerBase):
    """Server-side gateway handler providing sequential consistency."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        config = self.config
        self.lazy_controller: Optional[AdaptiveLazyController] = (
            None
            if config.adaptive_lazy_target is None
            else AdaptiveLazyController(config.adaptive_lazy_target)
        )
        self.gsn_wait_timeout = config.gsn_wait_timeout

        # T_L actuation precedence (DESIGN.md §16): the configured base,
        # an optional open-loop recommendation (lazy_controller), and an
        # optional closed-loop override set by the ConsistencyController.
        # _apply_lazy_interval() is the *single* writer resolving them;
        # nothing else assigns lazy_update_interval after construction.
        self._base_lazy_interval = self.lazy_update_interval
        self._controller_interval: Optional[float] = None
        # Back-reference installed by ConsistencyController.register_service
        # so view changes and recovery can re-adopt the interval in force.
        self.controller: Optional[Any] = None

        # §4.1: the pair of protocol variables every gateway handler keeps.
        self.my_gsn = 0
        self.my_csn = 0

        self._assignments: OrderedDict[int, int] = OrderedDict()
        self._update_assignments: OrderedDict[int, int] = OrderedDict()
        self._recent_commits: OrderedDict[int, int] = OrderedDict()
        self._awaiting_gsn: dict[int, PendingRequest] = {}
        self._commit_wait: dict[int, PendingRequest] = {}
        self._update_in_flight: Optional[int] = None
        self._stale_wait: list[tuple[int, PendingRequest]] = []
        self._deferred: list[PendingRequest] = []
        self._skips: set[int] = set()

        # Staleness accounting (§5.4.1).
        self._updates_since_lazy = 0
        self._updates_since_perf = 0
        self._updates_since_tune = 0
        self._last_tune_at = 0.0
        self._perf_anchor = 0.0
        self._g_lazy_interval = self.metrics.gauge(
            "replica_lazy_interval_seconds", replica=self.name
        )
        self._g_lazy_interval.set(self.lazy_update_interval)

        # Sequencer failover state.
        self._sequencer_active = False
        self._syncing = False
        self._sync_id = 0
        self._sync_replies: dict[str, SequencerSyncReply] = {}
        self._sync_buffer: list[Request] = []
        self.gsn_queries_sent = self._counter("replica_gsn_queries_sent")
        self._m_reassignments = self._counter("replica_reassignments")

        # Primary recovery (state transfer; DESIGN.md §9).
        self._recovering = False
        self._xfer_id = 0
        self._xfer_rotation = 0
        self.state_transfers_started = self._counter(
            "replica_state_transfers_started"
        )
        self.state_transfers_completed = self._counter(
            "replica_state_transfers_completed"
        )
        self.state_transfers_served = self._counter(
            "replica_state_transfers_served"
        )
        self._gap_stuck_csn: Optional[int] = None
        self._gap_watch_event = None
        # The check that found no hole and stopped the chain, while the
        # fabric is fault-free; None while the chain runs.
        self._gap_idle_since: Optional[float] = None

        # Gray-failure detection (DESIGN.md §14), default-off.  Two
        # pseudo-peers are tracked: "gsn-assign" (sequencer progress, for
        # the adaptive commit-gap watchdog) and "lazy-publisher" (lazy
        # propagation cadence, for slow-publisher reassignment).
        self.detector: Optional[PhiAccrualDetector] = (
            None
            if config.detector is None
            else PhiAccrualDetector(
                config.detector,
                owner=self.name,
                metrics=self.metrics,
                trace=self.trace,
            )
        )
        self._publisher_override: Optional[str] = None
        self._suspected_publisher: Optional[str] = None
        self._m_publisher_suspicions = self._counter(
            "replica_publisher_suspicions"
        )
        self._m_publisher_reassignments = self._counter(
            "replica_publisher_reassignments"
        )

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
        if self._publisher_override is not None:
            if self._publisher_override in members:
                return self._publisher_override
            self._publisher_override = None
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
        # Every primary watches its own commit frontier from the start: a
        # commit hole can open without a crash on *this* replica (lossy
        # links or a partition can exhaust a sender's retry budget).  Armed
        # on every replica: roles are registered after attach, so the first
        # check is where a secondary's chain ends.
        self._arm_gap_watchdog()
        if self.detector is not None:
            self.sim.schedule(self._publisher_check_interval(), self._publisher_check)
        if self.lazy_controller is not None:
            # The tuning loop runs on its own (faster) cadence so the
            # controller reacts to load changes even while the publish
            # interval is long.
            self._updates_since_tune = 0
            self._last_tune_at = self.now
            self.sim.schedule(self._tune_interval(), self._tune_tick)

    def _tune_interval(self) -> float:
        # One-second observation windows: fast enough to catch an update
        # storm within a few EWMA steps, long enough that low-rate traffic
        # does not whipsaw the estimate.
        assert self.lazy_controller is not None
        return max(1.0, self.lazy_controller.min_interval)

    def _tune_tick(self) -> None:
        """Fixed-cadence observation + retuning of T_L (adaptive mode).

        Only a primary counts updates: a replica that never joined the
        primary group ends the chain at its first tick.
        """
        if (
            self.network is None
            or self.lazy_controller is None
            or self.groups.primary not in self._joined
        ):
            return
        if self.up and self.is_primary:
            elapsed = self.now - self._last_tune_at
            self.lazy_controller.observe(self._updates_since_tune, elapsed)
            self._updates_since_tune = 0
            self._last_tune_at = self.now
            self._apply_lazy_interval()
        self.sim.schedule(self._tune_interval(), self._tune_tick)

    # ------------------------------------------------------------------
    # T_L precedence (DESIGN.md §16)
    # ------------------------------------------------------------------
    def set_controller_interval(self, interval: Optional[float]) -> None:
        """Closed-loop actuation of T_L by the ConsistencyController.

        The closed-loop value takes precedence over the open-loop
        recommendation but stays *bounded* by it: the open-loop tuner
        computes the longest interval still meeting its staleness target,
        so exceeding it would violate a declared consistency bound.
        ``None`` clears the override.
        """
        if interval is not None and interval <= 0:
            raise ValueError(
                f"controller interval must be positive, got {interval!r}"
            )
        self._controller_interval = interval
        self._apply_lazy_interval()

    def _effective_lazy_interval(self) -> float:
        """Resolve the three T_L writers into the interval in force.

        Precedence: closed-loop override, clamped from above by the
        open-loop consistency bound when both are configured; otherwise
        the open-loop recommendation; otherwise the configured base.
        """
        bound = (
            self.lazy_controller.recommended_interval()
            if self.lazy_controller is not None
            else None
        )
        if self._controller_interval is not None:
            if bound is not None:
                return min(self._controller_interval, bound)
            return self._controller_interval
        if bound is not None:
            return bound
        return self._base_lazy_interval

    def _apply_lazy_interval(self) -> None:
        """Single writer for ``lazy_update_interval`` after construction."""
        effective = self._effective_lazy_interval()
        if abs(effective - self.lazy_update_interval) <= 1e-9:
            return
        self.lazy_update_interval = effective
        self._g_lazy_interval.set(effective)
        if self.network is not None:
            self._schedule_lazy_tick()

    def _rearm_controller(self) -> None:
        """Re-adopt the closed-loop T_L after a view change or recovery.

        Mirrors the commit-gap watchdog's re-arm sites: a primary that
        was down (or out of the view) while the controller actuated
        missed the ``set_controller_interval`` call, so it asks the
        controller for the interval currently in force instead of
        resuming with its stale pre-crash value.
        """
        if self.controller is None:
            return
        interval = self.controller.current_interval()
        if interval != self._controller_interval:
            self._controller_interval = interval
            self._apply_lazy_interval()

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
            self._on_sync_request(payload)
        elif isinstance(payload, SequencerSyncReply):
            self._on_sync_reply(payload)
        elif isinstance(payload, StateTransferRequest):
            self._on_state_transfer_request(payload)
        elif isinstance(payload, StateTransferRelay):
            self._on_state_transfer_relay(payload)
        elif isinstance(payload, StateTransferSnapshot):
            self._on_state_transfer_snapshot(payload)
        elif isinstance(payload, GsnSkip):
            self._on_skip(payload)
        elif isinstance(payload, PublisherSuspicion):
            self._on_publisher_suspicion(payload)
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
                self._updates_since_tune += 1
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
        """Sequencer role: advance the GSN and broadcast the assignment."""
        if self._syncing:
            self._sync_buffer.append(request)
            return
        self.my_gsn += 1
        assign = GsnAssign(request.request_id, self.my_gsn, advances=True)
        self._remember_assignment(request.request_id, self.my_gsn, update=True)
        self.gmcast(self.groups.primary, assign, size_bytes=64)
        if self.trace.enabled:
            emit_span(
                self.trace, self.now, self.name,
                f"{span_root(request.request_id)}/q", "sequence",
                gsn=self.my_gsn, advances=True,
            )
            self.trace.emit(
                self.now, "sequencer.assign", self.name,
                request_id=request.request_id, gsn=self.my_gsn,
            )

    def _sequence_read(self, request: Request) -> None:
        """Sequencer role: stamp the read with the current GSN, unadvanced,
        at the replicas it names — at every replica when it names none.  A
        named replica this view lacks asks for its stamp (:meth:`_gsn_retry`).
        """
        assign = GsnAssign(request.request_id, self.my_gsn, advances=False)
        only = request.targets
        self.gmcast(self.groups.primary, assign, size_bytes=64, only=only)
        self.gmcast(self.groups.secondary, assign, size_bytes=64, only=only)
        if self.trace.enabled:
            emit_span(
                self.trace, self.now, self.name,
                f"{span_root(request.request_id)}/q", "sequence",
                gsn=self.my_gsn, advances=False,
            )
            self.trace.emit(
                self.now, "sequencer.stamp", self.name,
                request_id=request.request_id, gsn=self.my_gsn,
            )

    def _buffer_for_gsn(self, request: Request) -> None:
        pending = PendingRequest(request=request, arrived_at=self.now)
        gsn = self._assignments.get(request.request_id)
        if gsn is not None:
            self._bind(pending, gsn)
        else:
            self._awaiting_gsn[request.request_id] = pending
            if request.kind is RequestKind.READ:
                self.sim.schedule(
                    self.gsn_wait_timeout, self._gsn_retry, request.request_id
                )

    def _gsn_retry(self, request_id: int) -> None:
        """Re-request a read's GSN if the stamp never arrived (failover)."""
        pending = self._awaiting_gsn.get(request_id)
        if pending is None or not self.up:
            return
        sequencer = self.sequencer_name
        if sequencer is not None and sequencer != self.name:
            self.gsend(
                self.groups.qos, sequencer, GsnQuery(request_id, self.name),
                size_bytes=64,
            )
            self.gsn_queries_sent.inc()
        self.sim.schedule(self.gsn_wait_timeout, self._gsn_retry, request_id)

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
            # Sequencer progress signal: GSN broadcasts arrive at the
            # request rate, so their inter-arrival statistics size the
            # commit-gap watchdog (see _gap_delay).
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
            self._bind(pending, assign.gsn)

    def _bind(self, pending: PendingRequest, gsn: int) -> None:
        """Apply a GSN to a buffered request and route it onward."""
        pending.gsn = gsn
        if pending.request.kind is RequestKind.UPDATE:
            self._commit_wait[gsn] = pending
            self._drain_commit_queue()
            return
        # Read: measure staleness against the stamped GSN (§4.1.2).
        self.my_gsn = max(self.my_gsn, gsn)
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
        while self._update_in_flight is None:
            nxt = self.my_csn + 1
            if nxt in self._skips:
                self._skips.discard(nxt)
                self.my_csn = nxt
                continue
            pending = self._commit_wait.pop(nxt, None)
            if pending is None:
                return
            self._update_in_flight = nxt
            self.enqueue_ready(pending)
            return

    def execute(self, pending: PendingRequest) -> Any:
        value = super().execute(pending)
        if pending.request.kind is RequestKind.UPDATE:
            assert pending.gsn is not None
            self.my_csn = pending.gsn
            self.my_gsn = max(self.my_gsn, self.my_csn)
            self.updates_committed.inc()
            self._recent_commits[pending.request.request_id] = pending.gsn
            while len(self._recent_commits) > _RECENT_COMMITS:
                self._recent_commits.popitem(last=False)
        return value

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
            self.detector.record("lazy-publisher", self.now)
            self._suspected_publisher = None
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

    def _fail_deferred(self, reason: str) -> None:
        """Bounce every buffered deferred read with an explicit reply.

        Replaces the silent ``_deferred.clear()`` on view change/recovery:
        a dropped deferred read now produces an
        :class:`~repro.core.requests.OverloadReply`, so the client's retry
        accounting stays honest instead of waiting out a timing failure —
        or worse, receiving a zombie reply after the next lazy update for
        a request it has long since written off.
        """
        dropped, self._deferred = self._deferred, []
        for pending in dropped:
            if self.up and self.network is not None:
                self._shed(pending, reason)

    def flush_pending(self) -> None:
        """Crash-recovery flush also empties the deferred-read buffer.

        Without this, a crashed-and-recovered secondary retained its
        pre-crash ``_deferred`` entries and served them after the next
        lazy update — replies to requests whose clients gave up long ago.
        """
        super().flush_pending()
        self._fail_deferred("defer-dropped-recovery")

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
            # Announce the live interval whenever *any* tuner moves it
            # (open- or closed-loop): clients need T_L for the t_l modulo
            # of §5.4.1, and the configured default they were built with
            # no longer describes reality.
            lazy_interval=(
                self.lazy_update_interval
                if (
                    self.lazy_controller is not None
                    or self._controller_interval is not None
                )
                else None
            ),
        )
        self._updates_since_perf = 0
        self._perf_anchor = self.now
        return info

    # ------------------------------------------------------------------
    # Sequencer failover
    # ------------------------------------------------------------------
    def on_view_change(self, view: View, previous: Optional[View]) -> None:
        if view.group != self.groups.primary:
            return
        # Membership changed: drop any gray-publisher override and fall
        # back to the rank designation of the new view.
        self._publisher_override = None
        # A view change can promote this replica to lazy publisher (or
        # bring it back into the group after the controller moved T_L):
        # re-adopt the closed-loop interval the same way the commit-gap
        # watchdog re-arms.
        self._rearm_controller()
        if view.leader == self.name and not self._sequencer_active:
            self._sequencer_active = True
            if previous is not None and len(previous) > len(view):
                # We inherited the role from a crashed leader: recover GSNs.
                self._start_sync()
        elif view.leader != self.name:
            self._sequencer_active = False

    def _start_sync(self) -> None:
        self._syncing = True
        self._sync_id += 1
        self._sync_replies = {self.name: self._local_sync_reply(self._sync_id)}
        self.gmcast(
            self.groups.primary,
            SequencerSyncRequest(self.name, self._sync_id),
            size_bytes=64,
        )
        self.sim.schedule(_SYNC_TIMEOUT, self._finish_sync, self._sync_id)
        self.trace.emit(self.now, "sequencer.sync-start", self.name, sync_id=self._sync_id)

    def _local_sync_reply(self, sync_id: int) -> SequencerSyncReply:
        assignments = dict(self._update_assignments)
        assignments.update(self._recent_commits)
        unassigned = sorted(
            rid
            for rid, pending in self._awaiting_gsn.items()
            if pending.request.kind is RequestKind.UPDATE
        )
        return SequencerSyncReply(
            member=self.name,
            sync_id=sync_id,
            max_gsn=max(self.my_gsn, self.my_csn),
            csn=self.my_csn,
            assignments=tuple(sorted(assignments.items(), key=lambda kv: kv[1])),
            unassigned=tuple(unassigned),
        )

    def _on_sync_request(self, request: SequencerSyncRequest) -> None:
        reply = self._local_sync_reply(request.sync_id)
        self.gsend(self.groups.primary, request.new_sequencer, reply, size_bytes=512)

    def _on_sync_reply(self, reply: SequencerSyncReply) -> None:
        if not self._syncing or reply.sync_id != self._sync_id:
            return
        self._sync_replies[reply.member] = reply
        expected = set(self.primary_view.members)
        if expected.issubset(self._sync_replies):
            self._finish_sync(self._sync_id)

    def _finish_sync(self, sync_id: int) -> None:
        if not self._syncing or sync_id != self._sync_id:
            return
        self._syncing = False
        replies = list(self._sync_replies.values())
        union: dict[int, int] = {}
        for reply in replies:
            union.update(dict(reply.assignments))
        max_gsn = max([r.max_gsn for r in replies] + [self.my_gsn, self.my_csn])
        min_csn = min(r.csn for r in replies)
        self.my_gsn = max(self.my_gsn, max_gsn)
        # Re-broadcast assignments members may have missed.
        for rid, gsn in sorted(union.items(), key=lambda kv: kv[1]):
            if gsn > min_csn:
                self.gmcast(
                    self.groups.primary, GsnAssign(rid, gsn, advances=True),
                    size_bytes=64,
                )
        # GSNs nobody can attribute to a request become no-op skips.
        known = set(union.values())
        holes = tuple(
            g for g in range(min_csn + 1, self.my_gsn + 1) if g not in known
        )
        if holes:
            self.gmcast(self.groups.primary, GsnSkip(holes), size_bytes=64)
            self._on_skip(GsnSkip(holes))
        # Updates that never received a GSN get fresh ones, deterministically.
        assigned = set(union)
        fresh = sorted(
            {rid for reply in replies for rid in reply.unassigned} - assigned
        )
        for rid in fresh:
            self.my_gsn += 1
            self._remember_assignment(rid, self.my_gsn, update=True)
            self.gmcast(
                self.groups.primary, GsnAssign(rid, self.my_gsn, advances=True),
                size_bytes=64,
            )
        self.trace.emit(
            self.now, "sequencer.sync-done", self.name,
            max_gsn=self.my_gsn, holes=list(holes), fresh=fresh,
        )
        # Serve anything that arrived mid-sync.
        buffered, self._sync_buffer = self._sync_buffer, []
        for request in buffered:
            self._sequence_update(request)

    def _on_skip(self, skip: GsnSkip) -> None:
        for gsn in skip.gsns:
            if gsn > self.my_csn:
                self._skips.add(gsn)
        self._drain_commit_queue()

    # ------------------------------------------------------------------
    # Primary recovery via state transfer (DESIGN.md §9)
    # ------------------------------------------------------------------
    def begin_state_transfer(self) -> None:
        """Start (or restart) snapshot catch-up from the primary group.

        Called by the service when a crashed primary rejoins, and by the
        commit-gap watchdog when this primary holds a GSN assignment whose
        Request it never received (a client with a stale view multicast the
        update while we were out of the group).  Every local ordering
        buffer is flushed: the donor snapshot supersedes anything buffered
        here, and clients learn outcomes from the surviving primaries'
        replies.
        """
        self._recovering = True
        self._xfer_id += 1
        self.state_transfers_started.inc()
        self._disarm_gap_watchdog()
        self.flush_pending()  # also bounces deferred reads explicitly
        self._awaiting_gsn.clear()
        self._commit_wait.clear()
        self._stale_wait.clear()
        self._update_in_flight = None
        self.trace.emit(
            self.now, "replica.state-transfer-start", self.name,
            xfer_id=self._xfer_id,
        )
        self._request_state_transfer(self._xfer_id)

    def _request_state_transfer(self, xfer_id: int) -> None:
        if not self._recovering or xfer_id != self._xfer_id or not self.up:
            return
        sequencer = self.sequencer_name
        if sequencer is None or sequencer == self.name:
            # Nobody to ask: we lead (or the view is empty), so no peer
            # holds newer committed state.  Keep the retained state.
            self._recovering = False
            self.state_transfers_completed.inc()
            self.trace.emit(
                self.now, "replica.state-transfer-done", self.name,
                donor=None, csn=self.my_csn, gsn=self.my_gsn,
            )
            self._arm_gap_watchdog()
            self._rearm_controller()
            return
        self.gsend(
            self.groups.primary,
            sequencer,
            StateTransferRequest(self.name, xfer_id),
            size_bytes=64,
        )
        # Retry until a snapshot lands: the sequencer ignores requests from
        # members it does not (yet) see in its primary view, the chosen
        # donor may itself be recovering, and the sequencer can fail over
        # mid-transfer (retries re-resolve the current leader).
        self.sim.schedule(_SYNC_TIMEOUT, self._request_state_transfer, xfer_id)

    def _on_state_transfer_request(self, request: StateTransferRequest) -> None:
        if not self.is_sequencer:
            return
        members = self.primary_view.members
        if request.requester not in members:
            # The rejoin view change has not reached us yet.  Answering now
            # would let assignments made after the snapshot race past the
            # requester; it retries until we see it in the view.
            return
        donors = [m for m in members if m not in (self.name, request.requester)]
        max_gsn = max(self.my_gsn, self.my_csn)
        if not donors:
            # The requester is the only serving primary: no peer holds
            # newer committed state.  Ship our sequencing facts so it at
            # least adopts the authoritative GSN and assignment bindings.
            reply = StateTransferSnapshot(
                member=self.name,
                xfer_id=request.xfer_id,
                csn=-1,
                max_gsn=max_gsn,
                snapshot=None,
                assignments=tuple(
                    sorted(self._update_assignments.items(), key=lambda kv: kv[1])
                ),
            )
            self.gsend(self.groups.primary, request.requester, reply, size_bytes=512)
            return
        # Rotate donors across retries so a donor that is itself mid-
        # recovery (and therefore stays silent) does not wedge the
        # transfer.
        self._xfer_rotation += 1
        donor = donors[self._xfer_rotation % len(donors)]
        self.gsend(
            self.groups.primary,
            donor,
            StateTransferRelay(request.requester, request.xfer_id, max_gsn),
            size_bytes=64,
        )

    def _on_state_transfer_relay(self, relay: StateTransferRelay) -> None:
        if not self.up or self._recovering or relay.requester == self.name:
            return
        assignments = dict(self._update_assignments)
        assignments.update(self._recent_commits)
        commit_wait = tuple(
            (gsn, pending.request)
            for gsn, pending in sorted(self._commit_wait.items())
        )
        unassigned = tuple(
            pending.request
            for _, pending in sorted(self._awaiting_gsn.items())
            if pending.request.kind is RequestKind.UPDATE
        )
        reply = StateTransferSnapshot(
            member=self.name,
            xfer_id=relay.xfer_id,
            csn=self.my_csn,
            max_gsn=max(self.my_gsn, self.my_csn, relay.max_gsn),
            snapshot=self.app.snapshot(),
            commit_wait=commit_wait,
            unassigned=unassigned,
            assignments=tuple(sorted(assignments.items(), key=lambda kv: kv[1])),
            skips=tuple(sorted(g for g in self._skips if g > self.my_csn)),
        )
        self.state_transfers_served.inc()
        self.gsend(self.groups.primary, relay.requester, reply, size_bytes=2048)
        self.trace.emit(
            self.now, "replica.state-transfer-serve", self.name,
            requester=relay.requester, csn=self.my_csn,
        )

    def _on_state_transfer_snapshot(self, snap: StateTransferSnapshot) -> None:
        if not self._recovering or snap.xfer_id != self._xfer_id:
            return
        self._recovering = False
        self.state_transfers_completed.inc()
        if snap.snapshot is not None:
            self.app.restore(snap.snapshot)
            self.my_csn = snap.csn
        self.my_gsn = max(self.my_gsn, self.my_csn, snap.max_gsn)
        for rid, gsn in snap.assignments:
            self._remember_assignment(rid, gsn, update=True)
        for gsn in snap.skips:
            if gsn > self.my_csn:
                self._skips.add(gsn)
        # The uncommitted log suffix: bound updates we missed the client
        # multicasts for, replayed in GSN order once the queue drains.
        for gsn, request in snap.commit_wait:
            if gsn <= self.my_csn or gsn in self._commit_wait:
                continue
            pending = PendingRequest(request=request, arrived_at=self.now)
            pending.gsn = gsn
            self._commit_wait[gsn] = pending
        # Updates the donor has buffered but the sequencer has not yet
        # assigned: buffer them here too, so the upcoming GsnAssign (which
        # will include us — we are back in the sequencer's view) binds on
        # both replicas.
        for request in snap.unassigned:
            if request.request_id not in self._awaiting_gsn:
                self._buffer_for_gsn(request)
        self.trace.emit(
            self.now, "replica.state-transfer-done", self.name,
            donor=snap.member, csn=self.my_csn, gsn=self.my_gsn,
        )
        self._drain_commit_queue()
        self._drain_stale_waiters()
        self._arm_gap_watchdog()
        self._rearm_controller()

    # ------------------------------------------------------------------
    # Commit-gap watchdog
    # ------------------------------------------------------------------
    def _arm_gap_watchdog(self) -> None:
        """Monitor the commit frontier of a recovered primary.

        A client whose primary view predated our rejoin multicasts its
        updates without us; the sequencer (which does see us) broadcasts
        the GSN assignment to everyone.  We then hold an assignment for
        ``my_csn + 1`` with no Request to execute — a hole no local action
        can fill.  Two consecutive checks with zero progress trigger a
        fresh state transfer (the donor received the multicast, so its
        snapshot commits past the hole).
        """
        self._disarm_gap_watchdog()
        self._gap_stuck_csn = None
        self._gap_watch_event = self.sim.schedule(
            self._gap_delay(), self._gap_check
        )

    def _disarm_gap_watchdog(self) -> None:
        if self._gap_watch_event is not None:
            self._gap_watch_event.cancel()
            self._gap_watch_event = None
        self._gap_idle_since = None

    def _gap_delay(self) -> float:
        """Watchdog period: fixed ``2·_SYNC_TIMEOUT``, or adaptive.

        With the detector enabled the period follows the observed
        GSN-broadcast cadence (mean + k·σ of inter-arrival times,
        clamped around the fixed fallback), so a busy system notices a
        frozen commit frontier in a fraction of the fixed window while
        an idle one does not cry wolf between sparse updates.
        """
        fallback = 2 * _SYNC_TIMEOUT
        if self.detector is None:
            return fallback
        return self.detector.adaptive_timeout("gsn-assign", fallback)

    def _gap_check(self) -> None:
        self._gap_watch_event = None
        if self.network is None or self._recovering:
            return  # a state-transfer completion re-arms the watchdog
        if self.groups.primary not in self._joined:
            return  # only a primary commits: the chain ends at its first check
        hole = self.my_csn + 1
        blocked = (
            self.up
            and self.is_primary
            and not self.is_sequencer  # the sequencer never commits
            and self.my_gsn > self.my_csn
            and self._update_in_flight is None
            and hole not in self._commit_wait
            and hole not in self._skips
        )
        if blocked and self._gap_stuck_csn == self.my_csn:
            # Two consecutive checks with a frozen commit frontier: the
            # Request (or its assignment) for the hole is lost — no
            # retransmission is coming, only a donor snapshot (which
            # committed past the hole) can unblock us.
            self.trace.emit(self.now, "replica.commit-gap", self.name, gsn=hole)
            self.begin_state_transfer()
            return
        if not blocked and self._holes_close_in_time():
            # Nothing can open a hole that outlives a period until the
            # first fault: stop here and resume on this grid then.
            self._gap_idle_since = self.now
            self.network.on_first_fault(self._resume_gap_watchdog)
            return
        self._gap_stuck_csn = self.my_csn if blocked else None
        self._gap_watch_event = self.sim.schedule(
            self._gap_delay(), self._gap_check
        )

    def _holes_close_in_time(self) -> bool:
        """Whether a hole can be taken to close inside one watchdog period,
        faults aside.

        While the fabric is fault-free no payload is abandoned (DESIGN §9),
        so a hole lasts only until the request in flight to this replica
        lands.  The guard is the one *Lazy acks* uses, and like it rests on
        the mean: every link into the replica has ``ACK_ROUND_TRIP_MARGIN``
        × its mean delay within the fixed period.  A link whose delay can
        exceed the period while its mean passes (an ``Exponential`` or
        ``LogNormal`` tail) can hold a request back across two checks; the
        chain would then have fetched a snapshot that the idle watchdog does
        not.  A replica with a φ-detector sizes its period from traffic and
        always keeps its chain.
        """
        network = self.network
        if self.detector is not None or not network.fault_free:
            return False
        period, me = self._gap_delay(), self.name
        return all(
            ACK_ROUND_TRIP_MARGIN * network.latency_for(sender, me).mean_delay()
            < period
            for sender in network.endpoints()
        )

    def _resume_gap_watchdog(self) -> None:
        """A fault is about to apply: re-arm the check on the grid the chain
        would have walked (:func:`~repro.groups.membership.walk_grid`).  A
        check due at this very instant still runs, after the fault."""
        if self._gap_idle_since is None:
            return  # re-armed meanwhile by a state transfer
        period = self._gap_delay()
        _, last = walk_grid(self._gap_idle_since, period, self.now)
        self._gap_idle_since = None
        self._gap_stuck_csn = None
        self._gap_watch_event = self.sim.schedule_at(last + period, self._gap_check)

    # ------------------------------------------------------------------
    # Slow-publisher detection and reassignment (DESIGN.md §14)
    # ------------------------------------------------------------------
    def _publisher_check_interval(self) -> float:
        # Check a few times per expected lazy interval so a gray
        # publisher is reported within one or two missed propagations.
        return max(self.lazy_update_interval / 2, 0.05)

    def _publisher_check(self) -> None:
        """Secondary-side watchdog over the lazy publisher's cadence.

        A crashed publisher is handled by view changes; this catches the
        *gray* one — alive in the view but propagating so slowly that
        every deferred read on the secondary tier stalls.  Each secondary
        reports once per suspicion episode; the primaries converge on the
        same replacement deterministically, so no coordination round is
        needed.
        """
        if (
            self.network is None
            or self.detector is None
            or self.groups.secondary not in self._joined
        ):
            return  # a primary never watches the publisher: the chain ends
        if self.up and self.is_secondary:
            publisher = self.lazy_publisher_name
            self.detector.suspicion_check("lazy-publisher", self.now)
            if publisher is not None and self.detector.is_suspected(
                "lazy-publisher"
            ):
                if self._suspected_publisher != publisher:
                    self._suspected_publisher = publisher
                    self._m_publisher_suspicions.inc()
                    self.trace.emit(
                        self.now, "replica.publisher-suspect", self.name,
                        publisher=publisher,
                    )
                    self.gmcast(
                        self.groups.primary,
                        PublisherSuspicion(suspect=publisher, reporter=self.name),
                        size_bytes=64,
                    )
            elif not self.detector.is_suspected("lazy-publisher"):
                self._suspected_publisher = None
        self.sim.schedule(self._publisher_check_interval(), self._publisher_check)

    def _on_publisher_suspicion(self, sus: PublisherSuspicion) -> None:
        """Primary-side handling of a secondary's gray-publisher report.

        Every primary applies the same pure function of (current view,
        suspect) — the first serving member that is neither the sequencer
        nor the suspect — so the group agrees on the new publisher
        without a coordination round.  The override lasts until the next
        primary view change re-derives the rank designation.
        """
        if not self.is_primary:
            return
        if sus.suspect != self.lazy_publisher_name:
            return  # stale report; the role already moved
        members = self.primary_view.members
        leader = self.primary_view.leader
        replacement = next(
            (m for m in members if m != leader and m != sus.suspect), None
        )
        if replacement is None or replacement == self.lazy_publisher_name:
            return
        self._publisher_override = replacement
        self._m_publisher_reassignments.inc()
        self.trace.emit(
            self.now, "replica.publisher-reassign", self.name,
            suspect=sus.suspect, publisher=replacement, reporter=sus.reporter,
        )
