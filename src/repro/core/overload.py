"""Overload protection: bounded queues, pressure, and graceful degradation.

The paper's whole premise is that clients trade consistency for
timeliness — but the base runtime only makes that trade at *selection*
time.  Under a traffic burst the replica processing queues grow without
bound, every queued request is served late, and the measured windows the
``P_c(d)`` predictions rest on describe a regime that no longer exists.
This module makes the trade at *run* time as well (DESIGN.md §11), in the
spirit of OptCon's SLA-aware tuning (arXiv:1603.07938) and the stepwise
latency-bounding of arXiv:1212.1046:

* :class:`OverloadConfig` — replica-side protection: a queue capacity, a
  deadline-aware shed policy (drop requests that cannot possibly answer in
  time and say so with an explicit
  :class:`~repro.core.requests.OverloadReply`), and a bound and expiry for
  the deferred-read buffer;
* :class:`PressureMonitor` — an EWMA observer of queue depth and
  wait-vs-service ratio exposing a discrete, hysteretic pressure level;
* :class:`DegradationPolicy` — the client/gateway ladder: on overload
  evidence it steps consistency/fidelity *down* (widen the staleness
  threshold ``a``, redirect reads to lazier secondaries, lower ``P_c(d)``,
  finally shed the lowest-priority traffic via
  :class:`~repro.core.priority.PriorityMapper`) and steps back *up*
  hysteretically once pressure clears.  Every transition is recorded so
  degradation is auditable.

Everything here is **default-off**: a service built without an
``OverloadConfig`` runs none of it, and one whose protection never fires
behaves bit-identically to it (property-tested in
``tests/core/test_overload.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.priority import PriorityMapper
from repro.core.qos import QoSSpec
from repro.core.requests import ReadOutcome
from repro.obs.spans import emit_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.client import ClientHandler

#: Discrete pressure levels exported by :class:`PressureMonitor` and
#: mirrored by the degradation ladder.  Plain ints keep them trivially
#: comparable, mergeable, and JSON-able.
NOMINAL, ELEVATED, HIGH, CRITICAL = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# Replica-side configuration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OverloadConfig:
    """Replica-side overload protection knobs.

    ``queue_capacity`` bounds the *ready* queue (requests whose ordering
    constraints are met, waiting for the single server); a read arriving
    at a full queue is shed.  ``defer_capacity`` caps the deferred-read
    buffer.  With a config in place a replica also sheds, always, a read
    whose deadline has already passed on arrival or whose predicted wait
    (queue depth × EWMA service time) exceeds the remaining deadline
    budget, and gives every buffered deferred read an expiry at the
    owning client's deadline, so a dead or partitioned lazy publisher
    bounces reads instead of leaking them.

    Updates are **never shed**: the sequential commit order admits no
    holes, so the update path is protected indirectly — by admission
    control and by the client ladder reducing read load.
    """

    queue_capacity: Optional[int] = 64
    defer_capacity: Optional[int] = 256

    def __post_init__(self) -> None:
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(
                f"queue capacity must be >= 1 (or None), got {self.queue_capacity!r}"
            )
        if self.defer_capacity is not None and self.defer_capacity < 1:
            raise ValueError(
                f"defer capacity must be >= 1 (or None), got {self.defer_capacity!r}"
            )


# ---------------------------------------------------------------------------
# Pressure detection
# ---------------------------------------------------------------------------
#: :class:`PressureMonitor`'s shape: EWMA weight of a new sample, the
#: queue-depth and wait/service-ratio thresholds of the ELEVATED, HIGH
#: and CRITICAL levels, and the fraction of a threshold a signal must
#: fall below before the level steps down.
PRESSURE_ALPHA = 0.2
DEPTH_THRESHOLDS = (4.0, 8.0, 16.0)
WAIT_RATIO_THRESHOLDS = (1.0, 2.0, 4.0)
HYSTERESIS = 0.7


class PressureMonitor:
    """EWMA-based overload detector for one replica.

    Observes every completed request: the queue depth left behind, the
    queuing delay ``t_q``, and the service time ``t_s``.  Two smoothed
    signals — queue depth and the wait/service ratio — are mapped to a
    discrete pressure level (0–3).  Rising pressure takes effect
    immediately; falling pressure must clear :data:`HYSTERESIS` × the
    lower threshold before the level steps down, so the exported level
    does not flap at a boundary.
    """

    def __init__(self) -> None:
        self.depth_ewma = 0.0
        self.wait_ratio_ewma = 0.0
        self.service_time_ewma = 0.0
        self.level = NOMINAL
        self.samples = 0

    def _ewma(self, current: float, sample: float) -> float:
        if self.samples == 0:
            return sample
        return current + PRESSURE_ALPHA * (sample - current)

    @staticmethod
    def _bucket(value: float, thresholds: tuple[float, ...]) -> int:
        level = 0
        for bound in thresholds:
            if value >= bound:
                level += 1
        return level

    def observe(self, queue_depth: int, tq: float, ts: float) -> int:
        """Fold one completed request in; returns the (new) level."""
        ratio = tq / ts if ts > 0 else 0.0
        self.depth_ewma = self._ewma(self.depth_ewma, float(queue_depth))
        self.wait_ratio_ewma = self._ewma(self.wait_ratio_ewma, ratio)
        self.service_time_ewma = self._ewma(self.service_time_ewma, ts)
        self.samples += 1
        candidate = max(
            self._bucket(self.depth_ewma, DEPTH_THRESHOLDS),
            self._bucket(self.wait_ratio_ewma, WAIT_RATIO_THRESHOLDS),
        )
        if candidate > self.level:
            self.level = candidate
        elif candidate < self.level:
            # Hysteretic descent: require the signals to clear the band
            # below the current level by a margin before stepping down.
            step = self.level - 1
            depth_ok = self.depth_ewma < self._descend_bound(DEPTH_THRESHOLDS, step)
            ratio_ok = self.wait_ratio_ewma < self._descend_bound(
                WAIT_RATIO_THRESHOLDS, step
            )
            if depth_ok and ratio_ok:
                self.level = step
        return self.level

    @staticmethod
    def _descend_bound(thresholds: tuple[float, ...], step: int) -> float:
        # To *hold* level N the signal sits above thresholds[N-1]; to drop
        # to N-1 it must fall below HYSTERESIS * thresholds[N-1].
        index = min(step, len(thresholds) - 1)
        return HYSTERESIS * thresholds[index]

    def expected_wait(self, queue_depth: int) -> float:
        """Predicted queuing delay for a request joining the queue now."""
        return queue_depth * self.service_time_ewma


# ---------------------------------------------------------------------------
# Client-side degradation ladder
# ---------------------------------------------------------------------------
#: Shape of the consistency-degradation ladder (DESIGN.md §11).  At ladder
#: level ``L`` (0 = nominal):
#:
#: * the staleness threshold ``a`` widens by ``STALENESS_WIDEN × L``
#:   versions (secondaries defer less, fewer reads block on the lazy
#:   publisher);
#: * ``P_c(d)`` is lowered by ``PROBABILITY_RELIEF × L`` (the selection
#:   algorithm picks fewer replicas per read — less fan-out load);
#: * at ``PREFER_SECONDARIES_LEVEL`` and above, reads are redirected from
#:   primaries to the (lazier) secondary pool when one exists;
#: * at ``SHED_LEVEL``, reads whose priority is at or below
#:   :data:`SHED_PRIORITY` are shed locally before any replica sees them.
#:
#: ``MAX_LEVEL`` tops the ladder; a step back up needs ``RECOVERY_WINDOW``
#: quiet seconds, and ``STEP_COOLDOWN`` (the one per-policy setting,
#: :class:`DegradationPolicy`'s ``step_cooldown``) is the default minimum
#: gap between downward steps.
STALENESS_WIDEN = 5
PROBABILITY_RELIEF = 0.1
PREFER_SECONDARIES_LEVEL = 2
SHED_LEVEL = 3
MAX_LEVEL = 3
RECOVERY_WINDOW = 1.0
STEP_COOLDOWN = 0.25

#: The highest priority level the ladder sheds at :data:`SHED_LEVEL`.
SHED_PRIORITY = "bronze"


@dataclass(frozen=True)
class DegradationStep:
    """One audited transition of the ladder."""

    time: float
    from_level: int
    to_level: int
    trigger: str  # "overload" | "recovered" | the forcing caller's name

    @property
    def down(self) -> bool:
        return self.to_level > self.from_level


class DegradationPolicy:
    """Hysteretic ladder a client gateway walks under overload evidence.

    Down-steps happen on :meth:`note_overload` (an
    :class:`~repro.core.requests.OverloadReply` arrived), rate-limited by
    ``step_cooldown``.  Up-steps happen on :meth:`note_ok`
    once :data:`RECOVERY_WINDOW` seconds pass with no trigger — one level
    at a time, so recovery is as gradual as degradation.

    The ladder itself is pure: :meth:`note_overload`, :meth:`note_ok`
    and :meth:`force_level` return the step they take.  The client built
    with the policy binds itself as :attr:`client`; :meth:`record_step`
    accounts a step in that client's telemetry, and the client consults
    :meth:`admit` before issuing each read.
    """

    def __init__(
        self,
        priority_mapper: Optional[PriorityMapper] = None,
        step_cooldown: float = STEP_COOLDOWN,
    ) -> None:
        if step_cooldown < 0:
            raise ValueError(f"negative step_cooldown {step_cooldown!r}")
        self.step_cooldown = step_cooldown
        self.priority_mapper = priority_mapper or PriorityMapper()
        self.shed_floor = self.priority_mapper.probability_for(SHED_PRIORITY)
        self.level = NOMINAL
        self.steps: list[DegradationStep] = []
        self._last_trigger = float("-inf")
        self._last_change = float("-inf")
        self.client: Optional["ClientHandler"] = None

    # -- evidence -------------------------------------------------------
    def note_overload(self, now: float) -> Optional[DegradationStep]:
        """An OverloadReply (or equivalent) arrived; maybe step down."""
        self._last_trigger = now
        if self.level >= MAX_LEVEL:
            return None
        if now - self._last_change < self.step_cooldown:
            return None
        return self._move(now, self.level + 1, "overload")

    def note_ok(self, now: float) -> Optional[DegradationStep]:
        """Quiet evidence (a timely reply); maybe step back up one level."""
        if self.level == NOMINAL:
            return None
        if now - max(self._last_trigger, self._last_change) < RECOVERY_WINDOW:
            return None
        return self._move(now, self.level - 1, "recovered")

    def force_level(
        self, now: float, level: int, trigger: str = "controller"
    ) -> Optional[DegradationStep]:
        """Pin the ladder at ``level`` (closed-loop actuation, DESIGN.md §16).

        Bypasses the evidence cooldowns — the controller already
        rate-limits itself — but stays clamped to ``[0, MAX_LEVEL]`` and
        records the transition like any other step.  Pinning a level
        counts as trigger evidence so the evidence-driven ``note_ok``
        path cannot immediately unwind a controller hold.
        """
        level = max(0, min(level, MAX_LEVEL))
        if level == self.level:
            return None
        if level > self.level:
            self._last_trigger = now
        return self._move(now, level, trigger)

    def _move(self, now: float, to_level: int, trigger: str) -> DegradationStep:
        step = DegradationStep(now, self.level, to_level, trigger)
        self.level = to_level
        self._last_change = now
        self.steps.append(step)
        return step

    # -- request-time decisions ----------------------------------------
    def admit(self, qos: QoSSpec, priority: Optional[str] = None) -> Optional[QoSSpec]:
        """The QoS to issue a read with at the current level.

        Returns ``None`` when the read should be shed locally (ladder at
        :data:`SHED_LEVEL` and the request's priority — named, or inferred
        from its ``P_c(d)`` against the mapper's levels — is at or below
        :data:`SHED_PRIORITY`).  Otherwise returns the (possibly relaxed)
        spec: staleness widened, ``P_c(d)`` lowered, deadline untouched.
        """
        if self.level >= SHED_LEVEL and self._sheddable(qos, priority):
            return None
        if self.level == NOMINAL:
            return qos
        relief = PROBABILITY_RELIEF * self.level
        return QoSSpec(
            staleness_threshold=qos.staleness_threshold
            + STALENESS_WIDEN * self.level,
            deadline=qos.deadline,
            min_probability=max(0.0, qos.min_probability - relief),
        )

    def _sheddable(self, qos: QoSSpec, priority: Optional[str]) -> bool:
        if priority is not None:
            return self.priority_mapper.probability_for(priority) <= self.shed_floor
        return qos.min_probability <= self.shed_floor

    @property
    def prefer_secondaries(self) -> bool:
        return self.level >= PREFER_SECONDARIES_LEVEL

    # -- the bound client's bookkeeping ---------------------------------
    def shed_read(self, callback: Optional[Callable[[Any], None]]) -> int:
        """Refuse a read before dispatch; returns its request id.  The
        application gets a failed :class:`ReadOutcome` on the next step,
        and ``reads_shed``, not the timing statistics, counts it."""
        client = self.client
        request_id = next(client.network.request_ids)
        client.reads_shed.inc()
        client.trace.emit(
            client.now, "client.shed", client.name,
            request_id=request_id, level=self.level,
        )
        if callback is not None:
            client.sim.schedule(0.0, callback, ReadOutcome.unanswered(request_id, 0))
        return request_id

    def force_degradation(self, level: int, trigger: str = "controller") -> None:
        """Controller-driven ladder actuation (DESIGN.md §16): pin the
        ladder at ``level``, audited like any evidence-driven step."""
        self.record_step(self.force_level(self.client.now, level, trigger))

    def record_step(self, step: Optional[DegradationStep]) -> None:
        """Account one ladder transition (counters, gauge, trace, span)."""
        if step is None:
            return
        client = self.client
        if step.down:
            client.degradation_steps_down.inc()
        else:
            client.degradation_steps_up.inc()
        client.degradation_level.set(step.to_level)
        client.trace.emit(
            client.now, "client.degradation", client.name,
            from_level=step.from_level, to_level=step.to_level,
            trigger=step.trigger,
        )
        if client.trace.enabled:
            emit_span(
                client.trace, client.now, client.name,
                f"degrade/{client.name}/{len(self.steps)}",
                "degrade",
                from_level=step.from_level, to_level=step.to_level,
                trigger=step.trigger,
            )
