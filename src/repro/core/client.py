"""The client-side gateway handler (§5.3, §5.4).

Responsibilities, mirroring the paper's client gateway:

* **interception** — the client application calls :meth:`invoke`; the
  handler classifies it via the read-only registry (§2), records the
  interception time ``t_0``, and handles the rest transparently;
* **update path** — updates are multicast to every member of the primary
  group; the server side commits them in GSN order (§4.1.1); the first
  acknowledgement completes the call;
* **read path** — the handler evaluates the probabilistic models over its
  information repository, runs the selection strategy (Algorithm 1 by
  default), extends the set with the sequencer, and multicasts the read to
  the selected replicas;
* **first-reply delivery** — only the first response for a request is
  delivered to the client; later replies still update the repository
  (gateway delay, ``ert``);
* **online monitoring** — replies carry the piggybacked
  ``t_1 = t_s + t_q + t_b``; the handler derives the two-way gateway delay
  ``t_g = t_p − t_m − t_1`` and folds the replicas' performance broadcasts
  into the sliding windows;
* **timing-failure detection** — a response later than ``d`` (or missing)
  is a timing failure; if the observed frequency of timely responses drops
  below the client's ``P_c(d)``, the handler notifies the client through a
  callback.

Selection overhead is measured with a wall-clock timer around the
prediction + selection computation (this is the quantity Figure 3 reports);
it is observed into the ``client_selection_overhead_seconds`` histogram and
never charged to the simulated clock.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.config import ServiceConfig
from repro.core.controller import QosAdjustment
from repro.core.detector import PhiAccrualDetector
from repro.core.overload import DegradationPolicy
from repro.core.prediction import ResponseTimePredictor
from repro.core.qos import QoSSpec
from repro.obs.calibration import CalibrationTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import emit_span, span_root
from repro.core.replica import ServiceGroups
from repro.core.repository import ClientInfoRepository
from repro.core.requests import (
    OverloadReply,
    PerfBroadcast,
    ReadOnlyRegistry,
    ReadOutcome,
    Reply,
    Request,
    RequestKind,
    UpdateOutcome,
)
from repro.core.selection import (
    ReplicaView,
    SelectionStrategy,
    StateBasedSelection,
    set_success_probability,
)
from repro.core.staleness import StalenessModel
from repro.groups.group import GroupEndpoint
from repro.groups.membership import View
from repro.net.message import Message
from repro.sim.kernel import Event
from repro.sim.process import Signal
from repro.sim.tracing import NULL_TRACE, Trace

OutcomeCallback = Callable[[Any], None]

#: The one registry series fed from the host's wall clock (``perf_counter``
#: around Algorithm 1, Fig. 3's overhead) rather than the simulated one:
#: every seeded-outcome comparison drops it, by this name.
WALL_CLOCK_SERIES = "client_selection_overhead_seconds"

#: The pmf grid (§5.2): 1 ms bins.  The repository's windows bin every
#: sample on it, and the predictor counts on the repository's grid.
QUANTUM = 1e-3

#: Retry policy shape (DESIGN.md §9): a retry needs at least
#: ``MIN_REMAINING_BUDGET`` seconds of deadline left, the no-reply
#: checkpoint fires at ``CHECKPOINT_FRACTION`` of the remaining budget,
#: and a read is hedged when its ``P_c(d)`` is at least
#: ``HEDGE_MIN_PROBABILITY``.
MIN_REMAINING_BUDGET = 0.020
CHECKPOINT_FRACTION = 0.6
HEDGE_MIN_PROBABILITY = 0.9

#: φ-detector policies (DESIGN.md §14): a single-replica read whose target's
#: φ has reached ``PHI_HEDGE`` (below the detector's ``PHI_SUSPECT``) is
#: hedged, and ejecting suspects always leaves ``MIN_EJECT_KEEP``
#: candidates — if suspicion is that widespread the detector stands aside.
PHI_HEDGE = 4.0
MIN_EJECT_KEEP = 1


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline-budget-aware re-dispatch of reads (DESIGN.md §9).

    When the selected replicas go quiet — crash, eviction, overload — the
    gateway re-issues the read to the next-best replica from the §5
    selection model instead of riding the timing failure out:

    * ``max_retries`` bounds re-dispatches per read (hedges not counted);
    * a retry is only attempted while the remaining deadline budget is at
      least :data:`MIN_REMAINING_BUDGET` seconds — a retry that cannot
      finish in time is wasted load;
    * :data:`CHECKPOINT_FRACTION` places the no-reply checkpoint: if
      nothing arrived by ``t0 + CHECKPOINT_FRACTION * d``, the read is
      re-sent (subsequent checkpoints recurse on the remaining budget);
    * an eviction of every live selected replica (observed via a QoS-group
      view change) triggers an immediate re-dispatch;
    * ``hedge`` duplicates demanding reads — ``P_c(d)`` at least
      :data:`HEDGE_MIN_PROBABILITY` — to the runner-up replica at issue
      time when the strategy selected a single one.

    Retries never double-count in the timing statistics: each read is
    judged once, and the per-counter breakdown (``retries_sent``,
    ``retry_resolved``, ``reads_salvaged``...) is reported separately so
    ``observed_failure_probability`` stays honest.
    """

    max_retries: int = 1
    hedge: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"negative max_retries {self.max_retries!r}")


@dataclass
class _PendingCall:
    request: Request
    t0: float  # also the paper's transmission time t_m: sends happen at t0
    qos: Optional[QoSSpec]
    callback: Optional[OutcomeCallback]
    selected: tuple[str, ...]
    deadline_event: Optional[Event] = None
    gc_event: Optional[Event] = None
    retry_event: Optional[Event] = None
    failed: bool = False
    completed: bool = False
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


def _unanswered_read(request_id: int, replicas_selected: int) -> ReadOutcome:
    """The failed outcome of a read no replica answered: shed before
    dispatch, or abandoned by the garbage collector."""
    return ReadOutcome(
        request_id=request_id,
        value=None,
        response_time=None,
        timing_failure=True,
        replicas_selected=replicas_selected,
        first_replica=None,
        deferred=False,
        gsn=-1,
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
        self.retry_policy = retry_policy
        self.gc_timeout = config.gc_timeout
        self.on_qos_violation = on_qos_violation
        self.trace = trace
        self.degradation = degradation
        self.priority = priority
        # Closed-loop per-class knob (DESIGN.md §16): set by the
        # ConsistencyController each control epoch; None (the default)
        # leaves every read's QoS exactly as declared — bit-identical to
        # controller-free builds.
        self.qos_actuation: Optional[QosAdjustment] = None
        # Default-off φ-accrual detection of gray (alive-but-slow)
        # replicas: None keeps the pre-detector behaviour bit-identical.
        self.detector: Optional[PhiAccrualDetector] = (
            None
            if config.detector is None
            else PhiAccrualDetector(
                config.detector, owner=name, metrics=self.metrics, trace=trace
            )
        )
        # Replica-name -> earliest time a new dispatch there is allowed
        # again (populated by OverloadReply.retry_after back-pressure).
        self._shed_until: dict[str, float] = {}
        # The §5.3 candidates, name -> is_primary in view order (primaries
        # without the sequencer, then secondaries), re-derived per view
        # install; and those never heard from, re-derived when the views
        # change or a replica is heard from for the first time.
        self._roles: dict[str, bool] = {}
        self._unheard: Optional[list[str]] = None
        self._heard_count = 0

        self._pending: dict[int, _PendingCall] = {}
        # Transmission times of recent requests, kept so late replies (the
        # non-first responses of a multicast read) still yield a gateway-
        # delay sample and an ert refresh.
        self._recent_tm: "OrderedDict[int, float]" = OrderedDict()

        # Metrics the experiments consume: registry counters, read as
        # ``handler.reads_judged.value``.
        labels = {"client": name}
        counter = self.metrics.counter
        self.reads_issued = counter("client_reads_issued", **labels)
        self.reads_resolved = counter("client_reads_resolved", **labels)
        # Reads whose timing outcome is known: resolved reads plus pending
        # reads whose deadline has already passed.  The failure frequency
        # is judged against this so it is well-defined mid-flight.
        self.reads_judged = counter("client_reads_judged", **labels)
        self.updates_issued = counter("client_updates_issued", **labels)
        self.updates_resolved = counter("client_updates_resolved", **labels)
        self.timing_failures = counter("client_timing_failures", **labels)
        self.deferred_replies = counter("client_deferred_replies", **labels)
        self._m_replicas_selected = counter("client_replicas_selected", **labels)
        self._h_response_time = self.metrics.histogram(
            "client_response_time_seconds", **labels
        )
        self._h_selection_overhead = self.metrics.histogram(
            WALL_CLOCK_SERIES, **labels
        )
        self.selected_counts: list[int] = []
        # Never incremented: the ledger's CellOutcome is its one reader.
        # It goes once the ledger stops reading it (ROADMAP item 8).
        self.staleness_violations = 0

        # Retry/hedge accounting, kept separate from the timing statistics
        # so ``observed_failure_probability`` stays honest (§5.4).
        self.retries_sent = counter("client_retries_sent", **labels)
        self.hedges_sent = counter("client_hedges_sent", **labels)
        self.failover_redispatches = counter(
            "client_failover_redispatches", **labels
        )
        # resolved counters: the first delivered reply came from a retry /
        # the hedge; salvaged: judged failed at the deadline, value later.
        self.retry_resolved = counter("client_retry_resolved", **labels)
        self.hedge_resolved = counter("client_hedge_resolved", **labels)
        self.reads_salvaged = counter("client_reads_salvaged", **labels)

        # Gray-failure detection accounting (DESIGN.md §14).
        self._m_detector_ejections = counter(
            "client_detector_ejections", **labels
        )
        self._m_detector_hedges = counter("client_detector_hedges", **labels)
        self._m_detector_probes = counter("client_detector_probes", **labels)

        # Overload / degradation-ladder accounting (DESIGN.md §11).
        self.overload_replies = counter("client_overload_replies", **labels)
        # Reads the degradation ladder shed locally (never dispatched).
        self.reads_shed = counter("client_reads_shed", **labels)
        self._m_steps_down = counter("client_degradation_steps_down", **labels)
        self._m_steps_up = counter("client_degradation_steps_up", **labels)
        self._g_degradation_level = self.metrics.gauge(
            "client_degradation_level", **labels
        )

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
        pending = _PendingCall(
            request=request,
            t0=self.now,
            qos=None,
            callback=callback,
            selected=tuple(targets),
        )
        self._pending[request.request_id] = pending
        self._remember_tm(request.request_id, pending.t0)
        pending.gc_event = self.sim.schedule(
            self.gc_timeout, self._garbage_collect, request.request_id
        )
        if self.trace.enabled:
            emit_span(
                self.trace, self.now, self.name,
                span_root(request.request_id), "update", method=method,
            )
        for target in targets:
            self._emit_dispatch(pending, target, "update")
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
                return self._shed_read_locally(callback)
            qos = relaxed
        started = time.perf_counter()
        selection, predicted = self._select_replicas(qos)
        overhead = time.perf_counter() - started
        self._h_selection_overhead.observe(overhead)

        # Who the read goes to, settled before the (immutable) request that
        # names them: the selection, an issue-time hedge, detector probes.
        targets = list(selection)
        policy = self.retry_policy
        detector = self.detector
        # Suspicion-triggered hedging: when the sole selected replica has
        # an elevated (not yet ejectable) φ, hedge even below the
        # checkpoint-fraction policy's min_probability trigger.
        may_hedge = policy is not None and policy.hedge and len(selection) == 1
        suspicion_hedge = (
            may_hedge
            and detector is not None
            and detector.phi(selection[0], self.now) >= PHI_HEDGE
        )
        hedge: Optional[str] = None
        if may_hedge and (
            qos.min_probability >= HEDGE_MIN_PROBABILITY or suspicion_hedge
        ):
            # Hedge a demanding single-replica read: duplicate it to the
            # runner-up so one slow/crashed replica cannot sink P_c(d).
            hedge = self._next_best_replica(qos, set(selection), qos.deadline)
            if hedge is not None:
                targets.append(hedge)
        live = set(targets)
        probes: list[str] = []
        if detector is not None:
            # Probe traffic keeps ejected replicas observable: without it
            # an ejected peer would produce no arrivals and stay ejected
            # after its gray fault healed.
            for peer in detector.suspected():
                if peer not in targets and detector.should_probe(peer, self.now):
                    probes.append(peer)
            targets += probes
        # The sequencer stamps the read at these replicas and nowhere else —
        # unless someone else reads its broadcast: a retry re-sends this very
        # request to a replica that must already hold the stamp, and under a
        # φ-detector the replicas time their commit-gap watchdog by the
        # stamp cadence.  (Nobody to name is the broadcast too.)
        may_retry = policy is not None and policy.max_retries > 0
        broadcast = may_retry or detector is not None

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
        pending = _PendingCall(
            request=request,
            t0=t0,
            qos=qos,
            callback=callback,
            selected=selection,
        )
        pending.live = live
        pending.tried = set(targets)
        pending.predicted = predicted
        self._pending[request.request_id] = pending
        self._remember_tm(request.request_id, t0)
        self.reads_issued.inc()
        self._m_replicas_selected.inc(len(selection))
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
                self._emit_dispatch(pending, target, "select")
        if hedge is not None:
            pending.hedge_targets.add(hedge)
            self.hedges_sent.inc()
            if suspicion_hedge:
                self._m_detector_hedges.inc()
            self._emit_dispatch(pending, hedge, "hedge")
        for peer in probes:
            self._m_detector_probes.inc()
            self._emit_dispatch(pending, peer, "probe")
        if self.has_sequencer:
            sequencer = self.view_of(self.groups.primary).leader
            if sequencer is not None and sequencer not in targets:
                targets.append(sequencer)  # line 13/16: K extended with it
                self._emit_dispatch(pending, sequencer, "sequencer")

        for target in targets:
            self.gsend(self.groups.qos, target, request)

        # The timing-failure detector arms a timer at the deadline.
        pending.deadline_event = self.sim.schedule(
            qos.deadline, self._on_deadline, request.request_id
        )
        if may_retry:
            pending.retry_event = self.sim.schedule(
                qos.deadline * CHECKPOINT_FRACTION,
                self._retry_checkpoint,
                request.request_id,
            )
            if detector is not None:
                self.sim.schedule(
                    qos.deadline * CHECKPOINT_FRACTION / 2.0,
                    self._suspicion_checkpoint,
                    request.request_id,
                )
        pending.gc_event = self.sim.schedule(
            max(self.gc_timeout, 2 * qos.deadline),
            self._garbage_collect,
            request.request_id,
        )
        if self.trace.enabled:
            self.trace.emit(
                self.now, "client.read", self.name,
                request_id=request.request_id, selected=list(selection),
            )
        return request.request_id

    def _remember_tm(self, request_id: int, tm: float) -> None:
        self._recent_tm[request_id] = tm
        while len(self._recent_tm) > 4096:
            self._recent_tm.popitem(last=False)

    def _shed_read_locally(self, callback: Optional[OutcomeCallback]) -> int:
        """The degradation ladder refused this read before dispatch.

        The application gets a failed :class:`ReadOutcome` on the next
        simulation step; the read never reaches a replica and never enters
        the timing statistics (``reads_shed`` accounts for it instead, so
        ``observed_failure_probability`` keeps describing attempted reads).
        """
        request_id = next(self.network.request_ids)
        self.reads_shed.inc()
        self.trace.emit(
            self.now, "client.shed", self.name,
            request_id=request_id, level=self.degradation.level
            if self.degradation is not None else 0,
        )
        if callback is not None:
            self.sim.schedule(0.0, callback, _unanswered_read(request_id, 0))
        return request_id

    def _select_replicas(
        self, qos: QoSSpec
    ) -> tuple[tuple[str, ...], Optional[float]]:
        names = self._roles
        if self.degradation is not None and self.degradation.prefer_secondaries:
            # Ladder level >= PREFER_SECONDARIES_LEVEL: push read load off
            # the (update-serving) primaries onto the lazier secondaries
            # whenever any secondary is a candidate at all.
            secondaries = {n: False for n, primary in names.items() if not primary}
            if secondaries:
                names = secondaries
        if self.detector is not None:
            names = self._eject_suspects(names)
        stale_factor = self.predictor.staleness_factor(
            qos.staleness_threshold, self.now
        )
        strategy = self.strategy
        visited: Optional[dict[str, ReplicaView]] = None
        if isinstance(strategy, StateBasedSelection) and strategy.hot_spot_avoidance:
            visited = {}
            result = strategy.select(
                self._walk(names, qos.deadline, visited), qos, stale_factor
            )
        else:
            candidates = self._views(names, qos.deadline)
            result = strategy.select(candidates, qos, stale_factor)
        predicted: Optional[float] = None
        if self.calibration is not None or self.trace.enabled:
            if visited is not None:  # the views the walk built, in view order
                candidates = [visited[n] for n in names if n in visited]
            # The calibration forecast folds in *all* selected replicas —
            # SelectionResult.predicted_probability deliberately excludes
            # the best one (fault tolerance) and would read conservative.
            predicted = set_success_probability(
                candidates,
                result.replicas,
                stale_factor,
                getattr(strategy, "correlated_deferral", False),
            )
        return result.replicas, predicted

    def _walk(
        self,
        names: dict[str, bool],
        deadline: float,
        visited: dict[str, ReplicaView],
    ) -> Iterator[ReplicaView]:
        """The candidates ``names`` in Algorithm 1's line-2 order, each
        ``V`` tuple built only when the loop asks for it.

        Replicas never heard from come first (``ert`` = ∞), then the
        repository's reply order: oldest last reply first is decreasing
        ``ert``.  Candidates with equal ``ert`` are evaluated together and
        visited by decreasing ``F^I``, then name — :func:`~repro.core
        .selection.sort_candidates`' key, so the order is the sort's even
        where float rounding makes two ``ert`` values equal.  Every view built
        is also put in ``visited``.
        """
        cdfs = self.predictor.cdfs_at(deadline)

        def ties(group: list[str], ert: float) -> list[ReplicaView]:
            views = []
            for name in group:
                primary = names[name]
                view = ReplicaView(name, primary, *cdfs(name, not primary), ert)
                visited[name] = view
                views.append(view)
            if len(views) > 1:
                views.sort(key=lambda v: (-v.immediate_cdf, v.name))
            return views

        unheard = [n for n in self._never_heard() if n in names]
        if unheard:
            yield from ties(unheard, math.inf)
        now = self.now
        group: list[str] = []
        group_ert = math.inf
        for name, stats in self.repository.by_last_reply.items():
            if name not in names:
                continue
            ert = now - stats.last_reply_at
            if ert != group_ert:
                if group:
                    yield from ties(group, group_ert)
                group = []
                group_ert = ert
            group.append(name)
        if group:
            yield from ties(group, group_ert)

    def _never_heard(self) -> list[str]:
        """The candidates with no read reply yet, in view order."""
        heard = self.repository.by_last_reply
        if self._unheard is None or self._heard_count != len(heard):
            self._unheard = [n for n in self._roles if n not in heard]
            self._heard_count = len(heard)
        return self._unheard

    def _refresh_roles(self) -> None:
        """Re-derive the candidates from the views just installed."""
        views = self.views
        primary = views.get(self.groups.primary)
        secondary = views.get(self.groups.secondary)
        roles: dict[str, bool] = {}
        if primary is not None:
            sequencer = primary.leader if self.has_sequencer else None
            roles.update((m, True) for m in primary.members if m != sequencer)
        if secondary is not None:
            roles.update((m, False) for m in secondary.members)
        self._roles = roles
        self._unheard = None

    def _eject_suspects(self, names: dict[str, bool]) -> dict[str, bool]:
        """Drop φ-suspected candidates before Algorithm 1 runs.

        Ejection is advisory, never total: if fewer than
        :data:`MIN_EJECT_KEEP` candidates would survive, the detector stands
        aside and Algorithm 1 sees the full set (a detector in a
        panicking state must not be able to starve selection).  Ejected
        replicas stay in the repository and keep receiving probe traffic
        (:meth:`PhiAccrualDetector.should_probe`), so one on-time reply
        re-admits them.
        """
        assert self.detector is not None
        detector = self.detector
        now = self.now
        healthy: dict[str, bool] = {}
        ejected: list[str] = []
        for name, primary in names.items():
            detector.suspicion_check(name, now)
            # is_suspected covers both the latched state (threshold may
            # have been crossed on an earlier check) and the flap-damping
            # quarantine, which outlives the clearing arrival.
            if detector.is_suspected(name, now):
                ejected.append(name)
            else:
                healthy[name] = primary
        if not ejected or len(healthy) < MIN_EJECT_KEEP:
            return names
        self._m_detector_ejections.inc(len(ejected))
        self.trace.emit(
            self.now, "client.eject", self.name, ejected=ejected
        )
        return healthy

    # ------------------------------------------------------------------
    # Aggregate-tier hooks (repro.workloads.aggregate)
    # ------------------------------------------------------------------
    def candidate_views(self, qos: QoSSpec) -> list[ReplicaView]:
        """The §5.3 candidate set, as the read path would build it.

        Public accessor for the aggregated client tier, which runs
        Algorithm 1 once per arrival *batch* over exactly these views
        instead of once per simulated client.
        """
        return self._views(self._roles, qos.deadline)

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
        self._m_replicas_selected.inc(replicas_selected)
        self._h_response_time.observe_many(response_times, response_counts)

    def _emit_dispatch(self, pending: _PendingCall, target: str, reason: str) -> None:
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

    def _judge(self, pending: _PendingCall, timely: bool) -> None:
        """The read's one timing verdict (§5.4).

        Called exactly once per read, by whichever of its first reply and
        its deadline comes first: counts the verdict, scores the
        calibration forecast, emits the judgement span and checks the
        observed timely frequency against ``P_c(d)``.  A read the garbage
        collector abandons was judged at its deadline already.
        """
        self.reads_judged.inc()
        if not timely:
            self.timing_failures.inc()
        if self.calibration is not None and pending.predicted is not None:
            self.calibration.observe(self.strategy.name, pending.predicted, timely)
        if self.trace.enabled:
            root = span_root(pending.request.request_id)
            emit_span(
                self.trace, self.now, self.name, f"{root}/j", "judge",
                parent_id=root, timely=timely, predicted=pending.predicted,
            )
        self._check_violation(pending.qos)

    def _views(self, names: dict[str, bool], deadline: float) -> list[ReplicaView]:
        """Every candidate in ``names`` evaluated, in view order: the whole
        list, for a strategy that does not visit in ``ert`` order."""
        primaries = [n for n, primary in names.items() if primary]
        secondaries = [n for n, primary in names.items() if not primary]
        primary_cdfs, secondary_pairs = self.predictor.candidate_cdfs(
            primaries, secondaries, deadline
        )
        ert = self.repository.ert
        now = self.now
        views = [
            ReplicaView(name, True, cdf, cdf, ert(name, now))
            for name, cdf in zip(primaries, primary_cdfs)
        ]
        views.extend(
            ReplicaView(name, False, immediate, delayed, ert(name, now))
            for name, (immediate, delayed) in zip(secondaries, secondary_pairs)
        )
        return views

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
        is_read = reply.kind is RequestKind.READ
        self._absorb_context(reply)
        if self.detector is not None:
            self.detector.record(reply.replica, tp)
        pending = self._pending.get(reply.request_id)
        # Even late/duplicate replies refresh the monitoring state (§5.4).
        if pending is not None:
            tm = pending.t0
        else:
            tm = self._recent_tm.get(reply.request_id)
        if tm is not None:
            tg = tp - tm - reply.t1
            self.repository.record_reply(reply.replica, tg, tp, read=is_read)
        if pending is None or pending.completed:
            return
        self._settle(pending)

        response_time = tp - pending.t0
        if pending.request.kind is RequestKind.READ:
            assert pending.qos is not None
            timing_failure = pending.failed or response_time > pending.qos.deadline
            self.reads_resolved.inc()
            if self.degradation is not None and not timing_failure:
                # Quiet evidence: the ladder may hysteretically step back up.
                self._record_step(self.degradation.note_ok(self.now))
            if not pending.failed:
                self._judge(pending, timely=not timing_failure)
            elif reply.value is not None:
                self.reads_salvaged.inc()
            if reply.replica in pending.retry_targets:
                self.retry_resolved.inc()
            elif reply.replica in pending.hedge_targets:
                self.hedge_resolved.inc()
            if reply.deferred:
                self.deferred_replies.inc()
            self._h_response_time.observe(response_time)
            outcome = ReadOutcome(
                request_id=reply.request_id,
                value=reply.value,
                response_time=response_time,
                timing_failure=timing_failure,
                replicas_selected=len(pending.selected),
                first_replica=reply.replica,
                deferred=reply.deferred,
                gsn=reply.gsn,
            )
        else:
            self.updates_resolved.inc()
            outcome = UpdateOutcome(
                request_id=reply.request_id,
                value=reply.value,
                response_time=response_time,
                first_replica=reply.replica,
                gsn=reply.gsn,
            )
        if self.trace.enabled:
            root = span_root(reply.request_id)
            emit_span(
                self.trace, self.now, self.name, f"{root}/r", "reply",
                parent_id=root, replica=reply.replica,
                response_time=response_time, gsn=reply.gsn,
                deferred=reply.deferred,
            )
            self.trace.emit(
                self.now, "client.reply", self.name,
                request_id=reply.request_id, replica=reply.replica,
                response_time=response_time,
            )
        if pending.callback is not None:
            pending.callback(outcome)

    # ------------------------------------------------------------------
    # Overload replies and the degradation ladder (DESIGN.md §11)
    # ------------------------------------------------------------------
    def _on_overload(self, bounce: OverloadReply) -> None:
        """A replica shed one of our reads instead of serving it late."""
        if self.detector is not None:
            # A bounce is still evidence of life (overloaded, not gray).
            self.detector.record(bounce.replica, self.now)
        self.overload_replies.inc()
        until = self.now + bounce.retry_after
        if until > self._shed_until.get(bounce.replica, 0.0):
            self._shed_until[bounce.replica] = until
        self.trace.emit(
            self.now, "client.overload-reply", self.name,
            request_id=bounce.request_id, replica=bounce.replica,
            reason=bounce.reason, retry_after=bounce.retry_after,
            queue_depth=bounce.queue_depth, pressure=bounce.pressure,
        )
        if self.degradation is not None:
            self._record_step(self.degradation.note_overload(self.now))
        pending = self._pending.get(bounce.request_id)
        if pending is None or pending.completed:
            return
        pending.live.discard(bounce.replica)
        if pending.live:
            return  # another selected replica may still answer
        # Every live target shed (or died): re-dispatch to a replica that
        # is not backing us off, or wake when the earliest back-off ends.
        if not self._retry_dispatch(pending, reason="overload"):
            self._schedule_backoff_retry(pending)

    def _backed_off(self) -> set[str]:
        """Replicas we must not dispatch to yet (retry_after pending)."""
        now = self.now
        return {r for r, t in self._shed_until.items() if t > now}

    def _schedule_backoff_retry(self, pending: _PendingCall) -> None:
        """Arm a retry at the earliest back-off expiry — never before.

        This is what keeps an :class:`OverloadReply` from burning the
        retry budget immediately: instead of hammering the shedding
        replica (or giving up), the read sleeps until some replica accepts
        dispatches again, provided the deadline budget still allows it.
        """
        if not self._retries_left(pending):
            return
        waits = [t for t in self._shed_until.values() if t > self.now]
        if not waits:
            return
        wake = min(waits)
        deadline_at = pending.t0 + pending.qos.deadline
        if wake > deadline_at - MIN_REMAINING_BUDGET:
            return  # it could not finish in time anyway
        if pending.retry_event is not None:
            pending.retry_event.cancel()
        pending.retry_event = self.sim.schedule(
            wake - self.now, self._retry_checkpoint, pending.request.request_id
        )

    def force_degradation(self, level: int, trigger: str = "controller") -> None:
        """Controller-driven ladder actuation (DESIGN.md §16).

        Unlike the evidence-driven ``note_*`` paths, this pins the ladder
        at ``level`` directly; the transition is recorded through the
        same audited ``_record_step`` path so the degradation counters,
        spans, and policy history stay in agreement.
        """
        if self.degradation is None:
            return
        self._record_step(self.degradation.force_level(self.now, level, trigger))

    def _record_step(self, step) -> None:
        """Account one degradation-ladder transition (telemetry + spans)."""
        if step is None:
            return
        if step.down:
            self._m_steps_down.inc()
        else:
            self._m_steps_up.inc()
        self._g_degradation_level.set(step.to_level)
        self.trace.emit(
            self.now, "client.degradation", self.name,
            from_level=step.from_level, to_level=step.to_level,
            trigger=step.trigger,
        )
        if self.trace.enabled:
            assert self.degradation is not None
            emit_span(
                self.trace, self.now, self.name,
                f"degrade/{self.name}/{len(self.degradation.steps)}",
                "degrade",
                from_level=step.from_level, to_level=step.to_level,
                trigger=step.trigger,
            )

    # ------------------------------------------------------------------
    # Timing-failure detection (§5.4)
    # ------------------------------------------------------------------
    def _on_deadline(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None or pending.completed or pending.failed:
            return
        # No reply by the deadline: a timing failure, judged once even if
        # a (late) reply arrives afterwards.
        pending.failed = True
        self._judge(pending, timely=False)
        self.trace.emit(
            self.now, "client.timing-failure", self.name, request_id=request_id
        )

    # ------------------------------------------------------------------
    # Deadline-budget-aware retry (DESIGN.md §9)
    # ------------------------------------------------------------------
    def _suspicion_checkpoint(self, request_id: int) -> None:
        """Early no-reply check driven by live suspicion (DESIGN.md §14).

        Fires at half the checkpoint delay.  The checkpoint-fraction
        policy waits a fixed share of the deadline; but when a live
        target's φ has meanwhile climbed past :data:`PHI_HEDGE` — or the
        target has been latched or quarantined outright — the dispatch
        raced a gray fault the detector has since noticed, and waiting
        out the rest of the checkpoint only converts a salvageable read
        into a deadline race.  Re-dispatch immediately instead.  A read
        still unanswered this late with a *healthy* live set is left to
        the ordinary checkpoint, so the hedge stays evidence-driven.
        """
        pending = self._pending.get(request_id)
        if pending is None or pending.completed or self.detector is None:
            return
        if not pending.live:
            return  # the overload/failover paths own empty-live re-dispatch
        now = self.now
        if not any(
            self.detector.is_suspected(target, now)
            or self.detector.phi(target, now) >= PHI_HEDGE
            for target in pending.live
        ):
            return
        if self._retry_dispatch(pending, reason="suspicion"):
            # The hedge is budget-neutral: it must not consume the
            # policy's retry allowance, or a hedge aimed at a second
            # gray replica would leave the ordinary checkpoint with no
            # retry left and convert a salvageable read into a deadline
            # miss.
            pending.retries -= 1
            self._m_detector_hedges.inc()

    def _retry_checkpoint(self, request_id: int) -> None:
        """Periodic no-reply checkpoint while a read is in flight."""
        pending = self._pending.get(request_id)
        if pending is None or pending.completed:
            return
        pending.retry_event = None
        if self._retry_dispatch(pending, reason="timeout"):
            self._arm_retry_checkpoint(pending)

    def _retries_left(self, pending: _PendingCall) -> bool:
        """A retry policy is configured, the call is a read, and its retry
        budget is not spent."""
        policy = self.retry_policy
        return (
            policy is not None
            and pending.qos is not None
            and pending.retries < policy.max_retries
        )

    def _arm_retry_checkpoint(self, pending: _PendingCall) -> None:
        if not self._retries_left(pending):
            return
        remaining = (pending.t0 + pending.qos.deadline) - self.now
        delay = remaining * CHECKPOINT_FRACTION
        if delay <= 0.0:
            return
        pending.retry_event = self.sim.schedule(
            delay, self._retry_checkpoint, pending.request.request_id
        )

    def _retry_dispatch(self, pending: _PendingCall, reason: str) -> bool:
        """Re-issue a read to the next-best untried replica.

        Returns True iff a retry was actually sent.  Guards: a policy is
        configured, the read is still open, the retry budget and the
        remaining deadline budget both allow it, and an untried candidate
        exists.
        """
        if pending.completed or not self._retries_left(pending):
            return False
        remaining = (pending.t0 + pending.qos.deadline) - self.now
        if remaining < MIN_REMAINING_BUDGET:
            return False
        # Replicas actively backing us off (OverloadReply.retry_after) are
        # never retried before their back-off elapses.
        exclude = pending.tried | self._backed_off()
        target = None
        if self.detector is not None:
            # Route the retry around suspects too — a retry exists
            # because the first dispatch is already in trouble, so
            # aiming it at a peer the detector has since latched would
            # burn the remaining deadline budget on a second gray
            # replica.  Advisory only: if no unsuspected candidate
            # remains, fall through to the unfiltered set.
            suspects = self.detector.under_suspicion(self.now)
            if suspects:
                target = self._next_best_replica(
                    pending.qos, exclude | suspects, remaining
                )
        if target is None:
            target = self._next_best_replica(pending.qos, exclude, remaining)
        if target is None:
            return False
        pending.retries += 1
        pending.tried.add(target)
        pending.live.add(target)
        pending.retry_targets.add(target)
        self.retries_sent.inc()
        self._emit_dispatch(pending, target, reason)
        self.gsend(self.groups.qos, target, pending.request)
        self.trace.emit(
            self.now, "client.retry", self.name,
            request_id=pending.request.request_id, target=target,
            reason=reason, remaining=remaining, attempt=pending.retries,
        )
        return True

    def _next_best_replica(
        self, qos: QoSSpec, exclude: set[str], deadline: float
    ) -> Optional[str]:
        """Rank the candidates of §5.3 by P(response <= remaining budget)
        and return the best one not yet tried (deterministic tie-break)."""
        best_name: Optional[str] = None
        best_score = -1.0
        stale_factor = self.predictor.staleness_factor(
            qos.staleness_threshold, self.now
        )
        for name, primary in self._roles.items():
            if name in exclude:
                continue
            if primary:
                score = self.predictor.immediate_cdf(name, deadline)
            else:
                immediate, delayed = self.predictor.response_cdfs(name, deadline)
                score = stale_factor * immediate + (1.0 - stale_factor) * delayed
            if score > best_score or (
                score == best_score and (best_name is None or name < best_name)
            ):
                best_name = name
                best_score = score
        return best_name

    def on_view_change(self, view: "View", previous: Optional["View"]) -> None:
        """Evictions of every live selected replica trigger an immediate
        re-dispatch instead of waiting for the no-reply checkpoint."""
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
        if self.retry_policy is None:
            return
        for pending in list(self._pending.values()):
            if pending.request.kind is not RequestKind.READ:
                continue
            if pending.completed or not (pending.live & gone):
                continue
            pending.live -= gone
            if pending.live:
                continue  # another selected replica may still answer
            if self._retry_dispatch(pending, reason="failover"):
                self.failover_redispatches.inc()

    def recovery_stats(self) -> dict[str, int]:
        """Retry/hedge/failover/overload counters for the reports."""
        return {
            "retries_sent": self.retries_sent.value,
            "hedges_sent": self.hedges_sent.value,
            "failover_redispatches": self.failover_redispatches.value,
            "retry_resolved": self.retry_resolved.value,
            "hedge_resolved": self.hedge_resolved.value,
            "reads_salvaged": self.reads_salvaged.value,
            "overload_replies": self.overload_replies.value,
            "reads_shed": self.reads_shed.value,
            "degradation_steps_down": self._m_steps_down.value,
            "degradation_steps_up": self._m_steps_up.value,
            "detector_ejections": self._m_detector_ejections.value,
            "detector_hedges": self._m_detector_hedges.value,
            "detector_probes": self._m_detector_probes.value,
        }

    def _check_violation(self, qos: QoSSpec) -> None:
        """Notify the client when the observed timely frequency has fallen
        below ``P_c(d)``.  Runs once per read, when :meth:`_judge` judges
        it, so a late reply to a read already judged does not notify again.
        """
        if (
            self.on_qos_violation is not None
            and self.timely_fraction < qos.min_probability
        ):
            self.on_qos_violation(self.observed_failure_probability)

    def _settle(self, pending: _PendingCall) -> None:
        """Close a call: forget it and cancel its timers (cancelling one
        that has already fired is a no-op)."""
        pending.completed = True
        del self._pending[pending.request.request_id]
        for event in (pending.deadline_event, pending.gc_event, pending.retry_event):
            if event is not None:
                event.cancel()

    def _garbage_collect(self, request_id: int) -> None:
        """Abandon a request that will never complete (e.g. all selected
        replicas crashed before replying).

        A read gets here already judged: its deadline timer fires at
        ``t0 + d``, before this one, and only a reply cancels it.
        """
        pending = self._pending.get(request_id)
        if pending is None:
            return
        self._settle(pending)
        is_read = pending.request.kind is RequestKind.READ
        if is_read:
            self.reads_resolved.inc()
        self.trace.emit(self.now, "client.gc", self.name, request_id=request_id)
        if is_read and pending.callback is not None:
            pending.callback(_unanswered_read(request_id, len(pending.selected)))
