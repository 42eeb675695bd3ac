"""Server-side gateway handler base: execution, measurement, publishing.

The consistency protocols (:mod:`repro.core.handlers`) decide *when* a
request may execute; this base class owns everything else a server-side
gateway handler does (§5.4):

* a single-server processing queue per replica — requests execute one at a
  time with a sampled service time (scaled by the host's speed factor),
  which is what produces the queuing delay ``t_q`` the middleware measures;
* per-request timing: ``t_q`` (arrival → service start, minus any deferred
  wait), ``t_s`` (service), ``t_b`` (deferred-read buffering);
* replying to the client with the piggybacked ``t1 = t_s + t_q + t_b``;
* publishing a :class:`~repro.core.requests.PerfBroadcast` to every client
  after each completed read ("Each server handler also publishes the newly
  measured values ... whenever it completes servicing a read request");
* the lazy publisher of §3's two-level organisation: every ``T_L`` the
  designated primary multicasts its state to the secondary group.  It sits
  underneath whichever ordering protocol runs; a protocol says only what a
  snapshot holds (:meth:`ReplicaHandlerBase.lazy_snapshot`) and when a
  secondary applies one.

Every service parameter is read from the one
:class:`~repro.core.config.ServiceConfig` and bound to a plain attribute
here, so the per-request path never chases ``self.config``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.config import ServiceConfig
from repro.core.overload import PressureMonitor
from repro.core.requests import (
    LazyUpdate,
    OverloadReply,
    PerfBroadcast,
    Reply,
    Request,
    RequestKind,
    StalenessInfo,
)
from repro.core.state import ReplicatedObject
from repro.groups.group import GroupEndpoint
from repro.groups.membership import View
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.spans import emit_span, span_root
from repro.sim.rng import RngRegistry
from repro.sim.tracing import NULL_TRACE, Trace

#: Floor (seconds) of the back-pressure hint an :class:`OverloadReply`
#: carries: a client backs off a shedding replica at least this long.
MIN_RETRY_AFTER = 0.05


@dataclass(frozen=True)
class ServiceGroups:
    """The three group names of one replicated service (Figure 1).

    Named once, here: every message a handler sends reads one of them.
    Equality, hashing and repr go by ``service`` alone.
    """

    service: str
    primary: str = field(init=False, repr=False, compare=False)
    secondary: str = field(init=False, repr=False, compare=False)
    qos: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for role in ("primary", "secondary", "qos"):
            object.__setattr__(self, role, f"{self.service}.{role}")


@dataclass
class PendingRequest:
    """A request somewhere between arrival and completion on this replica."""

    request: Request
    arrived_at: float
    gsn: Optional[int] = None
    defer_started_at: Optional[float] = None
    tb: float = 0.0
    started_at: Optional[float] = None
    # Staleness attribution (DESIGN.md §15).  A deferred secondary read's
    # wait splits into lazy-publisher lag + network delay; a behind
    # primary's stale wait is commit-queue drain time.  The components sum
    # to the read's observed staleness wait (``tb + stale_wait``).
    stale_wait_started_at: Optional[float] = None
    stale_wait: float = 0.0
    lazy_wait: float = 0.0
    net_wait: float = 0.0

    @property
    def deferred(self) -> bool:
        return self.tb > 0.0 or self.defer_started_at is not None


class ReplicaHandlerBase(GroupEndpoint):
    """Common machinery for all server-side consistency handlers."""

    def __init__(
        self,
        name: str,
        config: ServiceConfig,
        groups: ServiceGroups,
        app: ReplicatedObject,
        rng: RngRegistry,
        trace: Trace = NULL_TRACE,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(name, heartbeat_interval=config.heartbeat_interval)
        self.config = config  # the protocol subclasses read their own fields
        self.groups = groups
        self._refresh_roles()  # none yet: no view is installed
        self.app = app
        self.rng = rng
        self.read_service_time = config.read_service_time
        self.update_service_time = (
            config.update_service_time or config.read_service_time
        )
        self.trace = trace
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.overload = config.overload
        self.pressure: Optional[PressureMonitor] = (
            PressureMonitor() if config.overload is not None else None
        )
        self.queue_depth_peak = 0
        self._ready: deque[PendingRequest] = deque()
        self._busy = False
        self._incarnation = 0
        self.reads_served = self._counter("replica_reads_served")
        self.updates_committed = self._counter("replica_updates_committed")
        self.deferred_reads_served = self._counter(
            "replica_deferred_reads_served"
        )
        self._h_service_time = self.metrics.histogram(
            "replica_service_time_seconds", replica=name
        )
        self._h_stale_wait = self.metrics.histogram(
            "replica_staleness_wait_seconds", replica=name
        )
        self._m_stale_components = {
            component: self.metrics.counter(
                "replica_staleness_wait_component_seconds",
                component=component,
                replica=name,
            )
            for component in ("lazy_publisher", "queue", "network")
        }
        self.busy_time = 0.0  # accumulated service time (utilization)

        # Lazy propagation (§3): interval, publication epoch, and the
        # anchor the next tick is scheduled from.
        self.lazy_update_interval = config.lazy_update_interval
        self._lazy_epoch = 0
        self._last_lazy_at = 0.0
        self._lazy_tick_event = None
        self.lazy_updates_sent = self._counter("replica_lazy_updates_sent")
        self.lazy_updates_applied = self._counter("replica_lazy_updates_applied")

    def _counter(self, name: str) -> Counter:
        """A registry counter labelled with this replica's name (handlers
        use this for their protocol-specific counters)."""
        return self.metrics.counter(name, replica=self.name)

    # ------------------------------------------------------------------
    # Identity and roles (derived from views)
    # ------------------------------------------------------------------
    @property
    def primary_view(self) -> View:
        return self.view_of(self.groups.primary)

    @property
    def secondary_view(self) -> View:
        return self.view_of(self.groups.secondary)

    @property
    def qos_view(self) -> View:
        return self.view_of(self.groups.qos)

    def _refresh_roles(self) -> None:
        """Derive the roles from the installed views — only when a view is
        installed, since every message reads them (§4.1: the sequencer is
        the leader of the primary group).

        Sets ``is_primary``, ``is_secondary``, ``sequencer_name``,
        ``is_sequencer`` and what :meth:`replica_names` and
        :meth:`client_names` return.
        """
        views, groups, name = self.views, self.groups, self.name
        primary, secondary, qos = (
            views[group].members if group in views else ()
            for group in (groups.primary, groups.secondary, groups.qos)
        )
        self.is_primary = name in primary
        self.is_secondary = name in secondary
        self.sequencer_name = primary[0] if primary else None
        self.is_sequencer = self.sequencer_name == name
        replicas = frozenset(primary) | frozenset(secondary)
        self._replica_names = replicas
        self._client_names = tuple(m for m in qos if m not in replicas)

    @property
    def lazy_publisher_name(self) -> Optional[str]:
        """The designated lazy publisher: the primary group's leader,
        unless the protocol reserves that rank (the sequential handler's
        leader is the sequencer, which serves nothing).  Derived per call:
        a protocol may override the rank designation between views."""
        return self.primary_view.leader

    @property
    def is_lazy_publisher(self) -> bool:
        return self.lazy_publisher_name == self.name

    def replica_names(self) -> frozenset[str]:
        return self._replica_names

    def client_names(self) -> tuple[str, ...]:
        """QoS-group members that are not replicas (i.e. the clients)."""
        return self._client_names

    # ------------------------------------------------------------------
    # Processing queue
    # ------------------------------------------------------------------
    def enqueue_ready(self, pending: PendingRequest) -> None:
        """Hand a request whose ordering constraints are met to the server.

        With an :class:`OverloadConfig`, reads may be *shed* here instead:
        bounded queue full, deadline already passed, or predicted wait
        exceeding the remaining budget.  Updates are never shed — the
        sequential commit order admits no holes (DESIGN.md §11).
        """
        if self.overload is not None and pending.request.kind is RequestKind.READ:
            reason = self._shed_reason(pending)
            if reason is not None:
                self._shed(pending, reason)
                return
        self._ready.append(pending)
        if self.queue_depth > self.queue_depth_peak:
            self.queue_depth_peak = self.queue_depth
        self._maybe_start()

    def _shed_reason(self, pending: PendingRequest) -> Optional[str]:
        """Why this read should bounce right now, or None to admit it."""
        capacity = self.overload.queue_capacity
        pressure = self.pressure
        qos = pending.request.qos
        remaining = None
        if qos is not None:
            remaining = pending.request.sent_at + qos.deadline - self.now
        if remaining is not None and remaining <= 0.0:
            return "deadline-passed"
        if capacity is not None and len(self._ready) >= capacity:
            return "queue-full"
        if (
            remaining is not None
            and pressure.samples > 0
            and pressure.expected_wait(self.queue_depth) > remaining
        ):
            return "predicted-late"
        return None

    def _shed(self, pending: PendingRequest, reason: str) -> None:
        """Bounce a read with an explicit :class:`OverloadReply`.

        Also used without an :class:`OverloadConfig` by the recovery-path
        deferred-read cleanup (the silent-drop bugfix): every dropped read
        gets an explicit failure reply so client accounting stays honest.
        """
        expected = (
            self.pressure.expected_wait(max(1, self.queue_depth))
            if self.pressure is not None
            else 0.0
        )
        retry_after = max(MIN_RETRY_AFTER, 0.5 * expected)
        level = self.pressure.level if self.pressure is not None else 0
        reply = OverloadReply(
            request_id=pending.request.request_id,
            replica=self.name,
            reason=reason,
            retry_after=retry_after,
            queue_depth=self.queue_depth,
            pressure=level,
        )
        self.gsend(self.groups.qos, pending.request.client, reply)
        self._counter("replica_reads_shed").inc()
        self.metrics.counter(
            "replica_reads_shed_by_reason", replica=self.name, reason=reason
        ).inc()
        self.trace.emit(
            self.now,
            "replica.shed",
            self.name,
            request_id=pending.request.request_id,
            reason=reason,
            retry_after=retry_after,
            queue_depth=self.queue_depth,
            pressure=level,
        )
        if self.trace.enabled:
            rid = pending.request.request_id
            emit_span(
                self.trace, self.now, self.name,
                f"{span_root(rid)}/shed/{self.name}", "shed",
                reason=reason, retry_after=retry_after,
                queue_depth=self.queue_depth, pressure=level,
            )

    def flush_pending(self) -> None:
        """Drop every queued and in-flight request (crash recovery).

        Bumping the service incarnation invalidates completion events that
        were scheduled before the flush: without it, a request in service
        at crash time would complete *after* recovery and commit stale work
        against freshly transferred state.
        """
        self._ready.clear()
        self._busy = False
        self._incarnation += 1

    @property
    def queue_depth(self) -> int:
        return len(self._ready) + (1 if self._busy else 0)

    def _maybe_start(self) -> None:
        if self._busy or not self._ready or not self.up:
            return
        pending = self._ready.popleft()
        self._busy = True
        pending.started_at = self.now
        model = (
            self.read_service_time
            if pending.request.kind is RequestKind.READ
            else self.update_service_time
        )
        duration = model.sample(self.rng.stream(f"service.{self.name}"))
        if self.host is not None:
            duration = self.host.scale(duration)
        self.sim.schedule(duration, self._complete, pending, duration, self._incarnation)

    def _complete(self, pending: PendingRequest, ts: float, incarnation: int) -> None:
        if incarnation != self._incarnation:
            # The queue was flushed (crash recovery) after this request
            # entered service; its work belongs to a dead incarnation.
            return
        self._busy = False
        if not self.up:
            # The replica crashed while "serving"; the work is lost.
            return
        self.busy_time += ts
        assert pending.started_at is not None
        tq = max(0.0, (pending.started_at - pending.arrived_at) - pending.tb)
        if self.pressure is not None:
            level = self.pressure.observe(len(self._ready), tq, ts)
            self.metrics.gauge("replica_pressure_level", replica=self.name).set(level)
            self.metrics.gauge("replica_queue_depth", replica=self.name).set(
                len(self._ready)
            )
            self.metrics.gauge(
                "replica_queue_depth_peak", replica=self.name
            ).set(self.queue_depth_peak)
        value = self.execute(pending)
        t1 = ts + tq + pending.tb
        reply = Reply(
            request_id=pending.request.request_id,
            replica=self.name,
            kind=pending.request.kind,
            value=value,
            t1=t1,
            gsn=self.committed_gsn(),
            deferred=pending.deferred,
            context=self.reply_context(),
        )
        # Replies travel over the reliable QoS-group channel to the client.
        self.gsend(self.groups.qos, pending.request.client, reply)
        self._h_service_time.observe(ts)
        if pending.request.kind is RequestKind.READ:
            self.reads_served.inc()
            if pending.deferred:
                self.deferred_reads_served.inc()
            # Staleness attribution: observed wait and its decomposition.
            # The components are computed from the same simulation
            # timestamps as the wait itself, so they sum to it exactly
            # (up to float associativity) on every read — including the
            # zero vector for immediately-fresh reads.
            observed_wait = pending.tb + pending.stale_wait
            self._h_stale_wait.observe(observed_wait)
            if pending.lazy_wait:
                self._m_stale_components["lazy_publisher"].inc(
                    pending.lazy_wait
                )
            if pending.stale_wait:
                self._m_stale_components["queue"].inc(pending.stale_wait)
            if pending.net_wait:
                self._m_stale_components["network"].inc(pending.net_wait)
            if self.trace.enabled:
                self.trace.emit(
                    self.now,
                    "replica.attribution",
                    self.name,
                    request_id=pending.request.request_id,
                    observed=observed_wait,
                    lazy_publisher=pending.lazy_wait,
                    queue=pending.stale_wait,
                    network=pending.net_wait,
                    deferred=pending.deferred,
                )
            self._publish_performance(ts, tq, pending)
        if self.trace.enabled:
            # Serve span: stitched under the dispatch edge that carried the
            # request here by obs.spans.build_span_trees (parent=None).
            rid = pending.request.request_id
            emit_span(
                self.trace, self.now, self.name,
                f"{span_root(rid)}/s/{self.name}", "serve",
                ts=ts, tq=tq, tb=pending.tb, gsn=reply.gsn,
                staleness=self.staleness(), deferred=pending.deferred,
                kind=pending.request.kind.value,
            )
            self.trace.emit(
                self.now,
                "replica.complete",
                self.name,
                request_id=pending.request.request_id,
                kind=pending.request.kind.value,
                ts=ts,
                tq=tq,
                tb=pending.tb,
            )
        self._maybe_start()
        self.after_complete(pending)

    # ------------------------------------------------------------------
    # Performance publishing (§5.4)
    # ------------------------------------------------------------------
    def _publish_performance(self, ts: float, tq: float, pending: PendingRequest) -> None:
        broadcast = PerfBroadcast(
            replica=self.name,
            ts=ts,
            tq=tq,
            tb=pending.tb if pending.deferred else None,
            staleness=self.staleness_info(),
        )
        # Advisory data: plain (unreliable) multicast is fine, as with UDP
        # publishing in the original system; a lost broadcast just means a
        # slightly staler window at one client.
        self.multicast(self.client_names(), broadcast, size_bytes=128)

    # ------------------------------------------------------------------
    # Lazy update propagation (§3, §4.1.2)
    # ------------------------------------------------------------------
    def attached(self, network, host) -> None:
        super().attached(network, host)
        self._last_lazy_at = self.now
        self._lazy_tick_event = None
        self._schedule_lazy_tick()

    def _schedule_lazy_tick(self) -> None:
        if self._lazy_tick_event is not None:
            self._lazy_tick_event.cancel()
        delay = max(0.0, (self._last_lazy_at + self.lazy_update_interval) - self.now)
        self._lazy_tick_event = self.sim.schedule(delay, self._lazy_tick)

    def _lazy_tick(self) -> None:
        """Fires every T_L on every primary; only the publisher sends.

        All primaries share the tick so whatever they count per lazy
        interval (:meth:`after_lazy_tick`) stays aligned and a publisher
        failover needs no handshake.  It is armed on every replica, because
        roles are registered after attach; a replica that never joined the
        primary group — every secondary — ends the chain at its first tick.
        """
        if self.network is None:
            return
        if self.groups.primary not in self._joined:
            return
        if self.up and self.is_primary:
            if self.is_lazy_publisher:
                self._lazy_epoch += 1
                csn = self.committed_gsn()
                update = LazyUpdate(
                    publisher=self.name,
                    epoch=self._lazy_epoch,
                    csn=csn,
                    snapshot=self.lazy_snapshot(),
                    published_at=self.now,
                )
                self.gmcast(self.groups.secondary, update, size_bytes=1024)
                self.lazy_updates_sent.inc()
                if self.trace.enabled:
                    self.trace.emit(
                        self.now, "lazy.publish", self.name,
                        epoch=self._lazy_epoch, csn=csn,
                        interval=self.lazy_update_interval,
                    )
            self.after_lazy_tick()
        # Advance the tick anchor unconditionally: a primary that is out of
        # the view (or crashed) must still reschedule one full interval
        # ahead, not spin at zero delay.
        self._last_lazy_at = self.now
        self._schedule_lazy_tick()

    # ------------------------------------------------------------------
    # Hooks for the consistency protocols
    # ------------------------------------------------------------------
    def execute(self, pending: PendingRequest) -> Any:
        """Run the operation against the application state."""
        return self.app.invoke(pending.request.method, pending.request.args)

    def committed_gsn(self) -> int:
        """The version stamp to attach to replies.  Protocols override."""
        return 0

    def staleness(self) -> int:
        """Missed-update count annotated on serve spans.  Protocols
        override (the sequential handler reports ``my_gsn - my_csn``)."""
        return 0

    def staleness_info(self) -> Optional[StalenessInfo]:
        """Extra lazy-publisher fields (§5.4.1); None for other replicas."""
        return None

    def reply_context(self) -> Any:
        """Protocol piggyback on replies (the causal handler's clock)."""
        return None

    def after_complete(self, pending: PendingRequest) -> None:
        """Post-completion hook (e.g. CSN advancement drains buffers)."""

    def lazy_snapshot(self) -> Any:
        """What a lazy update carries next to ``committed_gsn()``."""
        return self.app.snapshot()

    def after_lazy_tick(self) -> None:
        """Called on every live primary each T_L, publisher or not."""
