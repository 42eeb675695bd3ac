"""The client-side gateway handler (§5.3, §5.4).

The paper's client gateway, as one pipeline: the client application calls
:meth:`~ClientHandler.invoke`; the handler classifies the call through the
read-only registry (§2) and records the interception time ``t_0``.  An
update is multicast to every primary, which commit it in GSN order
(§4.1.1).  A read goes to the replicas Algorithm 1 selects over the
information repository (:class:`~repro.core.candidates.Candidates`),
extended with the sequencer.  Only the first reply is delivered; every
reply carries ``t_1 = t_s + t_q + t_b``, from which the handler derives
the gateway delay ``t_g = t_p − t_m − t_1``, and the replicas' performance
broadcasts fill the sliding windows.  The
:class:`~repro.core.judge.TimingJudge` holds each call until it closes and
judges every read once against its deadline.

Each optional policy is an object the handler holds only when it is
configured: retry and hedging (:class:`~repro.core.retry.ReadRetry`), the
φ-detector (:class:`~repro.core.detector.ClientDetector`) and the
degradation ladder (:class:`~repro.core.overload.DegradationPolicy`).  Every
series they count is registered on the handler whether or not they are.

Selection overhead is measured with a wall-clock timer around the
prediction + selection computation (this is the quantity Figure 3 reports);
it is observed into the ``client_selection_overhead_seconds`` histogram and
never charged to the simulated clock.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from repro.core.candidates import Candidates
from repro.core.config import ServiceConfig
from repro.core.controller import QosAdjustment
from repro.core.detector import ClientDetector
from repro.core.judge import OutcomeCallback, PendingCall, TimingJudge
from repro.core.overload import DegradationPolicy
from repro.core.prediction import ResponseTimePredictor
from repro.core.qos import QoSSpec
from repro.core.replica import ServiceGroups
from repro.core.repository import ClientInfoRepository
from repro.core.requests import (
    OverloadReply,
    PerfBroadcast,
    ReadOnlyRegistry,
    Reply,
    Request,
    RequestKind,
)
from repro.core.retry import ReadRetry, RetryPolicy
from repro.core.selection import ReplicaView, SelectionStrategy, StateBasedSelection
from repro.core.staleness import StalenessModel
from repro.groups.group import GroupEndpoint
from repro.groups.membership import View
from repro.net.message import Message
from repro.obs.calibration import CalibrationTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import emit_span, span_root
from repro.sim.process import Signal
from repro.sim.tracing import NULL_TRACE, Trace

#: The one registry series fed from the host's wall clock (``perf_counter``
#: around Algorithm 1, Fig. 3's overhead) rather than the simulated one:
#: every seeded-outcome comparison drops it, by this name.
WALL_CLOCK_SERIES = "client_selection_overhead_seconds"

#: The pmf grid (§5.2): 1 ms bins.  The repository's windows bin every
#: sample on it, and the predictor counts on the repository's grid.
QUANTUM = 1e-3

#: The fault-recovery counters :meth:`ClientHandler.recovery_stats` reports,
#: by the policy that moves them, each registered as ``client_<name>`` and
#: bound to the attribute ``<name>`` whether or not its policy is configured.
#: ``retry_resolved``/``hedge_resolved``: the first delivered reply came from
#: a retry / the hedge; ``reads_salvaged``: judged failed at the deadline,
#: value delivered later; ``reads_shed``: refused by the ladder unsent.
RETRY_COUNTERS = (
    "retries_sent", "hedges_sent", "failover_redispatches",
    "retry_resolved", "hedge_resolved", "reads_salvaged",
)
DETECTOR_COUNTERS = ("detector_ejections", "detector_hedges", "detector_probes")
LADDER_COUNTERS = (
    "overload_replies", "reads_shed", "degradation_steps_down", "degradation_steps_up",
)


class ClientHandler(GroupEndpoint):
    """One client's gateway handler for one replicated service."""

    def __init__(
        self,
        name: str,
        config: ServiceConfig,
        groups: ServiceGroups,
        read_only_methods: Optional[set[str]] = None,
        strategy: Optional[SelectionStrategy] = None,
        staleness_model: Optional["StalenessModel"] = None,
        default_qos: Optional[QoSSpec] = None,
        retry_policy: Optional[RetryPolicy] = None,
        on_qos_violation: Optional[Callable[[float], None]] = None,
        trace: Trace = NULL_TRACE,
        metrics: Optional[MetricsRegistry] = None,
        calibration: Optional[CalibrationTracker] = None,
        degradation: Optional[DegradationPolicy] = None,
        priority: Optional[str] = None,
    ) -> None:
        super().__init__(
            name, heartbeat_interval=config.membership.heartbeat_interval
        )
        self.groups = groups
        self.registry = ReadOnlyRegistry(read_only_methods)
        # The counters below are load-bearing (timely_fraction drives the
        # QoS-violation callback), so a missing registry means a private
        # enabled one, never the no-op NULL_METRICS.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.calibration = calibration
        self.repository = ClientInfoRepository(config.window_size, quantum=QUANTUM)
        self.predictor = ResponseTimePredictor(
            self.repository,
            config.lazy_update_interval,
            staleness_model=staleness_model,
            metrics=self.metrics,
            metrics_labels={"client": name},
        )
        self.strategy = strategy or StateBasedSelection()
        self.default_qos = default_qos
        self.has_sequencer = config.has_sequencer
        self.on_qos_violation = on_qos_violation
        self.trace = trace
        self.priority = priority
        # Closed-loop per-class knob (DESIGN.md §16): set by the
        # ConsistencyController each control epoch; None (the default)
        # leaves every read's QoS exactly as declared.
        self.qos_actuation: Optional[QosAdjustment] = None
        # The optional policies: each object exists only when configured.
        self.detector: Optional[ClientDetector] = (
            None if config.detector is None else ClientDetector(config.detector, self)
        )
        self.retry = None if retry_policy is None else ReadRetry(self, retry_policy)
        self.degradation = degradation
        if degradation is not None:
            if degradation.client is not None:
                raise ValueError("a DegradationPolicy walks one client's ladder")
            degradation.client = self
        self.candidates = Candidates(self)
        self.judge = TimingJudge(self, config.gc_timeout)

        # Registry counters, read as ``handler.reads_judged.value``.
        def counter(series: str):
            return self.metrics.counter(f"client_{series}", client=self.name)

        self.reads_issued = counter("reads_issued")
        self.reads_resolved = counter("reads_resolved")
        # Reads whose timing outcome is known: resolved reads plus pending
        # reads whose deadline has already passed.  The failure frequency
        # is judged against this so it is well-defined mid-flight.
        self.reads_judged = counter("reads_judged")
        self.updates_issued = counter("updates_issued")
        self.updates_resolved = counter("updates_resolved")
        self.timing_failures = counter("timing_failures")
        self.deferred_replies = counter("deferred_replies")
        self.replicas_selected = counter("replicas_selected")
        self.response_times = self.metrics.histogram(
            "client_response_time_seconds", client=name
        )
        self._h_selection_overhead = self.metrics.histogram(
            WALL_CLOCK_SERIES, client=name
        )
        for series in RETRY_COUNTERS + DETECTOR_COUNTERS + LADDER_COUNTERS:
            setattr(self, series, counter(series))
        self.degradation_level = self.metrics.gauge(
            "client_degradation_level", client=name
        )
        self.selected_counts: list[int] = []
        # Never incremented: the ledger's CellOutcome is its one reader.
        # It goes once the ledger stops reading it (ROADMAP item 8).
        self.staleness_violations = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def invoke(
        self,
        method: str,
        args: tuple = (),
        qos: Optional[QoSSpec] = None,
        callback: Optional[OutcomeCallback] = None,
    ) -> int:
        """Invoke a method on the replicated service; returns the request id.

        Reads require a QoS specification (per-call or ``default_qos``);
        updates ignore timeliness (§2: "the timeliness attribute is
        applicable only for read-only requests").
        """
        kind = self.registry.kind_of(method)
        if kind is RequestKind.READ:
            spec = qos or self.default_qos
            if spec is None:
                raise ValueError(f"read {method!r} needs a QoS specification")
            return self._issue_read(method, args, spec, callback)
        return self._issue_update(method, args, callback)

    def call(self, method: str, args: tuple = (), qos: Optional[QoSSpec] = None) -> Signal:
        """Process-friendly variant: returns a Signal fired with the outcome.

        Usage inside a workload generator::

            outcome = yield client.call("get", (), qos)
        """
        done = Signal(f"{self.name}.call")
        self.invoke(method, args, qos, callback=done.fire)
        return done

    @property
    def timely_fraction(self) -> float:
        """Observed frequency of timely responses so far (1.0 before data)."""
        return 1.0 - self.observed_failure_probability

    @property
    def observed_failure_probability(self) -> float:
        judged = self.reads_judged.value
        return self.timing_failures.value / judged if judged else 0.0

    def average_selected(self) -> float:
        if not self.selected_counts:
            return 0.0
        return sum(self.selected_counts) / len(self.selected_counts)

    # ------------------------------------------------------------------
    # Update path (§5: multicast to all primaries)
    # ------------------------------------------------------------------
    def _issue_update(
        self, method: str, args: tuple, callback: Optional[OutcomeCallback]
    ) -> int:
        request = Request(
            request_id=next(self.network.request_ids),
            client=self.name,
            method=method,
            args=args,
            kind=RequestKind.UPDATE,
            qos=None,
            sent_at=self.now,
            context=self._update_context(),
        )
        targets = list(self.view_of(self.groups.primary).members)
        pending = self.judge.open(request, None, callback, tuple(targets))
        self.judge.arm_gc(pending)
        if self.trace.enabled:
            emit_span(
                self.trace, self.now, self.name,
                span_root(request.request_id), "update", method=method,
            )
        for target in targets:
            self.emit_dispatch(pending, target, "update")
            self.gsend(self.groups.qos, target, request)
        self.updates_issued.inc()
        if self.trace.enabled:
            self.trace.emit(
                self.now, "client.update", self.name,
                request_id=request.request_id, targets=targets,
            )
        return request.request_id

    # ------------------------------------------------------------------
    # Read path (§5.3)
    # ------------------------------------------------------------------
    def _issue_read(
        self,
        method: str,
        args: tuple,
        qos: QoSSpec,
        callback: Optional[OutcomeCallback],
    ) -> int:
        t0 = self.now
        if self.qos_actuation is not None:
            # Controller-prescribed class knob first (clamped inside
            # apply()); the degradation ladder may relax further below.
            qos = self.qos_actuation.apply(qos)
        if self.degradation is not None:
            relaxed = self.degradation.admit(qos, self.priority)
            if relaxed is None:
                return self.degradation.shed_read(callback)
            qos = relaxed
        started = time.perf_counter()
        selection, predicted = self.candidates.select(qos)
        self._h_selection_overhead.observe(time.perf_counter() - started)

        # Who the read goes to, settled before the (immutable) request that
        # names them: the selection, an issue-time hedge, detector probes.
        targets = list(selection)
        retry, detector = self.retry, self.detector
        hedge = None if retry is None else retry.hedge(qos, selection)
        if hedge is not None:
            targets.append(hedge[0])
        live = set(targets)
        probes = [] if detector is None else detector.probes(targets)
        targets += probes
        # The sequencer stamps the read at these replicas and nowhere else —
        # unless someone else reads its broadcast: a retry re-sends this very
        # request to a replica that must already hold the stamp, and under a
        # φ-detector the replicas time their commit-gap watchdog by the
        # stamp cadence.  (Nobody to name is the broadcast too.)
        broadcast = (
            retry is not None and retry.policy.max_retries > 0
        ) or detector is not None

        request = Request(
            request_id=next(self.network.request_ids),
            client=self.name,
            method=method,
            args=args,
            kind=RequestKind.READ,
            qos=qos,
            sent_at=t0,
            context=self._read_context(),
            targets=None if broadcast else (tuple(targets) or None),
        )
        pending = self.judge.open(request, qos, callback, selection)
        pending.live = live
        pending.tried = set(targets)
        pending.predicted = predicted
        self.reads_issued.inc()
        self.replicas_selected.inc(len(selection))
        self.selected_counts.append(len(selection))
        if self.trace.enabled:
            emit_span(
                self.trace, self.now, self.name,
                span_root(request.request_id), "read",
                method=method, deadline=qos.deadline,
                min_probability=qos.min_probability,
                predicted=predicted, selected=len(selection),
            )
            for target in selection:
                self.emit_dispatch(pending, target, "select")
        if hedge is not None:
            retry.hedged(pending, *hedge)
        for peer in probes:
            self.detector_probes.inc()
            self.emit_dispatch(pending, peer, "probe")
        if self.has_sequencer:
            sequencer = self.view_of(self.groups.primary).leader
            if sequencer is not None and sequencer not in targets:
                targets.append(sequencer)  # line 13/16: K extended with it
                self.emit_dispatch(pending, sequencer, "sequencer")

        for target in targets:
            self.gsend(self.groups.qos, target, request)

        self.judge.arm_deadline(pending)
        if retry is not None:
            retry.arm(pending)
        self.judge.arm_gc(pending)
        if self.trace.enabled:
            self.trace.emit(
                self.now, "client.read", self.name,
                request_id=request.request_id, selected=list(selection),
            )
        return request.request_id

    def _refresh_roles(self) -> None:
        """Re-derive the candidates from the views just installed."""
        self.candidates.refresh()

    # ------------------------------------------------------------------
    # Aggregate-tier hooks (repro.workloads.aggregate)
    # ------------------------------------------------------------------
    def candidate_views(self, qos: QoSSpec) -> list[ReplicaView]:
        """The §5.3 candidate set, as the read path would build it.

        Public accessor for the aggregated client tier, which runs
        Algorithm 1 once per arrival *batch* over exactly these views
        instead of once per simulated client.
        """
        return self.candidates.views(self.candidates.roles, qos.deadline)

    def record_aggregate_batch(
        self,
        count: int,
        timing_failures: int,
        deferred: int,
        replicas_selected: int,
        response_times,
        response_counts=None,
    ) -> None:
        """Fold one batch of analytically resolved reads into the counters.

        The aggregated client tier accounts whole arrival batches here so
        telemetry consumers (``client_*`` counters, the response-time
        histogram, ``timely_fraction``) see modeled traffic exactly as
        they see discrete traffic.  ``response_times`` covers the reads
        that produced a response, ``response_counts[i]`` of them at
        ``response_times[i]`` (one each when omitted); the per-read
        ``selected_counts`` list is deliberately *not* grown — at millions
        of modeled reads it would dominate memory.
        """
        if count <= 0:
            return
        self.reads_issued.inc(count)
        self.reads_resolved.inc(count)
        self.reads_judged.inc(count)
        self.timing_failures.inc(timing_failures)
        self.deferred_replies.inc(deferred)
        self.replicas_selected.inc(replicas_selected)
        self.response_times.observe_many(response_times, response_counts)

    def emit_dispatch(self, pending: PendingCall, target: str, reason: str) -> None:
        """Span for one transmission of the request to one target."""
        if not self.trace.enabled:
            return
        root = span_root(pending.request.request_id)
        span_id = f"{root}/d{pending.dispatches}"
        pending.dispatches += 1
        emit_span(
            self.trace, self.now, self.name, span_id, "dispatch",
            parent_id=root, target=target, reason=reason,
        )

    # ------------------------------------------------------------------
    # Inbound traffic
    # ------------------------------------------------------------------
    def on_group_message(self, group: str, sender: str, payload: Any) -> None:
        if isinstance(payload, Reply):
            self._on_reply(payload)
        elif isinstance(payload, OverloadReply):
            self._on_overload(payload)

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, PerfBroadcast):
            self.repository.record_broadcast(payload)
            self.repository.record_staleness(payload, self.now)
            if self.detector is not None:
                self.detector.record(payload.replica, self.now)

    # ------------------------------------------------------------------
    # Protocol-specific context hooks (overridden by the causal handler)
    # ------------------------------------------------------------------
    def _update_context(self) -> Any:
        """Piggyback attached to outgoing updates (None by default)."""
        return None

    def _read_context(self) -> Any:
        """Piggyback attached to outgoing reads (None by default)."""
        return None

    def _absorb_context(self, reply: Reply) -> None:
        """Fold a reply's protocol context into client state (no-op)."""

    def _on_reply(self, reply: Reply) -> None:
        tp = self.now
        self._absorb_context(reply)
        if self.detector is not None:
            self.detector.record(reply.replica, tp)
        # Even late/duplicate replies refresh the monitoring state (§5.4).
        tm = self.judge.sent_at(reply.request_id)
        if tm is not None:
            tg = tp - tm - reply.t1
            read = reply.kind is RequestKind.READ
            self.repository.record_reply(reply.replica, tg, tp, read=read)
        pending = self.judge.calls.get(reply.request_id)
        if pending is None:
            return  # closed already: a late or duplicate reply
        outcome = self.judge.resolve(pending, reply)
        if self.trace.enabled:
            root = span_root(reply.request_id)
            emit_span(
                self.trace, self.now, self.name, f"{root}/r", "reply",
                parent_id=root, replica=reply.replica,
                response_time=outcome.response_time, gsn=reply.gsn,
                deferred=reply.deferred,
            )
            self.trace.emit(
                self.now, "client.reply", self.name,
                request_id=reply.request_id, replica=reply.replica,
                response_time=outcome.response_time,
            )
        if pending.callback is not None:
            pending.callback(outcome)

    def _on_overload(self, bounce: OverloadReply) -> None:
        """A replica shed one of our reads instead of serving it late
        (DESIGN.md §11)."""
        if self.detector is not None:
            # A bounce is still evidence of life (overloaded, not gray).
            self.detector.record(bounce.replica, self.now)
        self.overload_replies.inc()
        self.trace.emit(
            self.now, "client.overload-reply", self.name,
            request_id=bounce.request_id, replica=bounce.replica,
            reason=bounce.reason, retry_after=bounce.retry_after,
            queue_depth=bounce.queue_depth, pressure=bounce.pressure,
        )
        if self.degradation is not None:
            self.degradation.record_step(self.degradation.note_overload(self.now))
        if self.retry is not None:
            self.retry.on_overload(bounce, self.judge.calls.get(bounce.request_id))

    def on_view_change(self, view: "View", previous: Optional["View"]) -> None:
        """Replicas evicted from the primary or secondary group leave the
        detector's watch, and the retry policy re-dispatches reads whose
        every live target they were."""
        if previous is None:
            return
        if view.group not in (self.groups.primary, self.groups.secondary):
            return
        gone = set(previous.members) - set(view.members)
        if not gone:
            return
        if self.detector is not None:
            # Departed peers produce no more arrivals; keeping their φ
            # state would pin them suspected forever.  Crash-style
            # eviction belongs to the membership service — the detector
            # only tracks peers that can still come back gray.
            for peer in gone:
                self.detector.forget(peer)
        if self.retry is not None:
            self.retry.fail_over(gone, self.judge.calls.values())

    def recovery_stats(self) -> dict[str, int]:
        """Retry/hedge/failover/overload counters for the reports."""
        return {
            series: getattr(self, series).value
            for series in RETRY_COUNTERS + LADDER_COUNTERS + DETECTOR_COUNTERS
        }
