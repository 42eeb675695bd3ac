"""A client's open calls and the one timing verdict of each read (§5.4).

A response later than ``d`` — or none — is a timing failure.  The judge
holds every call from dispatch to close and judges each read exactly once,
by whichever of its first reply and its deadline comes first.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from repro.core.qos import QoSSpec
from repro.core.requests import ReadOutcome, Reply, Request, RequestKind, UpdateOutcome
from repro.obs.spans import emit_span, span_root
from repro.sim.kernel import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.client import ClientHandler

OutcomeCallback = Callable[[Any], None]


@dataclass
class PendingCall:
    """One call from dispatch to close."""

    request: Request
    t0: float  # also the paper's transmission time t_m: sends happen at t0
    qos: Optional[QoSSpec]
    callback: Optional[OutcomeCallback]
    selected: tuple[str, ...]
    deadline_event: Optional[Event] = None
    gc_event: Optional[Event] = None
    retry_event: Optional[Event] = None
    suspicion_event: Optional[Event] = None
    failed: bool = False  # judged a timing failure at its deadline
    # Retry bookkeeping (reads only): replicas still expected to answer,
    # replicas already tried, and which targets were retries/hedges.
    live: set[str] = field(default_factory=set)
    tried: set[str] = field(default_factory=set)
    retry_targets: set[str] = field(default_factory=set)
    hedge_targets: set[str] = field(default_factory=set)
    retries: int = 0
    # Telemetry: the full-set success forecast scored by the calibration
    # tracker, and a monotone counter naming dispatch spans across retries.
    predicted: Optional[float] = None
    dispatches: int = 0


class TimingJudge:
    """One client's open calls, their timers and their verdicts."""

    def __init__(self, client: "ClientHandler", gc_timeout: float) -> None:
        self.client = client
        self.gc_timeout = gc_timeout
        self.calls: dict[int, PendingCall] = {}
        # Transmission times of recent requests, kept so late replies (the
        # non-first responses of a multicast read) still yield a gateway-
        # delay sample and an ert refresh.
        self._sent_at: "OrderedDict[int, float]" = OrderedDict()

    def open(
        self,
        request: Request,
        qos: Optional[QoSSpec],
        callback: Optional[OutcomeCallback],
        selected: tuple[str, ...],
    ) -> PendingCall:
        """Track a call sent now, at ``request.sent_at``."""
        pending = PendingCall(request, request.sent_at, qos, callback, selected)
        self.calls[request.request_id] = pending
        self._sent_at[request.request_id] = pending.t0
        while len(self._sent_at) > 4096:
            self._sent_at.popitem(last=False)
        return pending

    def sent_at(self, request_id: int) -> Optional[float]:
        """When a request still open, or a recent one, went out."""
        pending = self.calls.get(request_id)
        return pending.t0 if pending is not None else self._sent_at.get(request_id)

    # The timers carry the request id, not the call: a cancelled timer
    # stays in the kernel's heap until its time, and must not keep a closed
    # call alive that long.
    def arm_deadline(self, pending: PendingCall) -> None:
        pending.deadline_event = self.client.sim.schedule(
            pending.qos.deadline, self._on_deadline, pending.request.request_id
        )

    def arm_gc(self, pending: PendingCall) -> None:
        """Abandon the call if nothing closes it first: after ``gc_timeout``,
        and never before twice a read's deadline."""
        delay = self.gc_timeout
        if pending.qos is not None:
            delay = max(delay, 2 * pending.qos.deadline)
        pending.gc_event = self.client.sim.schedule(
            delay, self._garbage_collect, pending.request.request_id
        )

    def resolve(
        self, pending: PendingCall, reply: Reply
    ) -> Union[ReadOutcome, UpdateOutcome]:
        """Close a call with its first reply; returns what the application
        learns."""
        self.settle(pending)
        client = self.client
        response_time = client.now - pending.t0
        if pending.request.kind is not RequestKind.READ:
            client.updates_resolved.inc()
            return UpdateOutcome(
                request_id=reply.request_id,
                value=reply.value,
                response_time=response_time,
                first_replica=reply.replica,
                gsn=reply.gsn,
            )
        timing_failure = pending.failed or response_time > pending.qos.deadline
        client.reads_resolved.inc()
        if client.degradation is not None and not timing_failure:
            # Quiet evidence: the ladder may hysteretically step back up.
            client.degradation.record_step(client.degradation.note_ok(client.now))
        if not pending.failed:
            self._judge(pending, timely=not timing_failure)
        elif reply.value is not None:
            client.reads_salvaged.inc()
        if reply.replica in pending.retry_targets:
            client.retry_resolved.inc()
        elif reply.replica in pending.hedge_targets:
            client.hedge_resolved.inc()
        if reply.deferred:
            client.deferred_replies.inc()
        client.response_times.observe(response_time)
        return ReadOutcome(
            request_id=reply.request_id,
            value=reply.value,
            response_time=response_time,
            timing_failure=timing_failure,
            replicas_selected=len(pending.selected),
            first_replica=reply.replica,
            deferred=reply.deferred,
            gsn=reply.gsn,
        )

    def settle(self, pending: PendingCall) -> None:
        """Close a call: forget it and cancel its timers (cancelling one
        that has already fired is a no-op), so none fires for it later."""
        del self.calls[pending.request.request_id]
        for event in (
            pending.deadline_event,
            pending.gc_event,
            pending.retry_event,
            pending.suspicion_event,
        ):
            if event is not None:
                event.cancel()

    def _on_deadline(self, request_id: int) -> None:
        # No reply by the deadline: a timing failure, judged once even if
        # a (late) reply arrives afterwards.
        pending = self.calls[request_id]  # open: settling cancels the timer
        pending.failed = True
        self._judge(pending, timely=False)
        client = self.client
        client.trace.emit(
            client.now, "client.timing-failure", client.name, request_id=request_id
        )

    def _judge(self, pending: PendingCall, timely: bool) -> None:
        """The read's one verdict: count it, score the calibration forecast,
        and notify the application when the observed timely frequency has
        fallen below ``P_c(d)``."""
        client = self.client
        client.reads_judged.inc()
        if not timely:
            client.timing_failures.inc()
        if client.calibration is not None and pending.predicted is not None:
            client.calibration.observe(client.strategy.name, pending.predicted, timely)
        if client.trace.enabled:
            root = span_root(pending.request.request_id)
            emit_span(
                client.trace, client.now, client.name, f"{root}/j", "judge",
                parent_id=root, timely=timely, predicted=pending.predicted,
            )
        if (
            client.on_qos_violation is not None
            and client.timely_fraction < pending.qos.min_probability
        ):
            client.on_qos_violation(client.observed_failure_probability)

    def _garbage_collect(self, request_id: int) -> None:
        """Abandon a request that will never complete (e.g. all selected
        replicas crashed before replying).

        A read gets here already judged: its deadline timer fires at
        ``t0 + d``, before this one, and only a reply cancels it.
        """
        pending = self.calls[request_id]  # open: settling cancels the timer
        self.settle(pending)
        client = self.client
        is_read = pending.request.kind is RequestKind.READ
        if is_read:
            client.reads_resolved.inc()
        client.trace.emit(client.now, "client.gc", client.name, request_id=request_id)
        if is_read and pending.callback is not None:
            pending.callback(ReadOutcome.unanswered(request_id, len(pending.selected)))
