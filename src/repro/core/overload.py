"""Overload protection: bounded queues, pressure, and graceful degradation.

The paper's whole premise is that clients trade consistency for
timeliness — but the base runtime only makes that trade at *selection*
time.  Under a traffic burst the replica processing queues grow without
bound, every queued request is served late, and the measured windows the
``P_c(d)`` predictions rest on describe a regime that no longer exists.
This module makes the trade at *run* time as well (DESIGN.md §11), in the
spirit of OptCon's SLA-aware tuning (arXiv:1603.07938) and the stepwise
latency-bounding of arXiv:1212.1046:

* :class:`OverloadConfig` — replica-side knobs: a queue capacity, a
  deadline-aware shed policy (drop requests that cannot possibly answer in
  time and say so with an explicit
  :class:`~repro.core.requests.OverloadReply`), and bounds/expiry for the
  deferred-read buffer;
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
``OverloadConfig`` behaves bit-identically to the pre-overload runtime
(property-tested in ``tests/core/test_overload.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.priority import PriorityMapper
from repro.core.qos import QoSSpec

#: Discrete pressure levels exported by :class:`PressureMonitor` and
#: mirrored by the degradation ladder.  Plain ints keep them trivially
#: comparable, mergeable, and JSON-able.
NOMINAL, ELEVATED, HIGH, CRITICAL = 0, 1, 2, 3

PRESSURE_NAMES = ("nominal", "elevated", "high", "critical")


def pressure_name(level: int) -> str:
    """Human-readable name of a pressure/degradation level."""
    return PRESSURE_NAMES[max(0, min(level, len(PRESSURE_NAMES) - 1))]


# ---------------------------------------------------------------------------
# Replica-side configuration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OverloadConfig:
    """Replica-side overload protection knobs.

    ``queue_capacity`` bounds the *ready* queue (requests whose ordering
    constraints are met, waiting for the single server); a read arriving
    at a full queue is shed.  ``shed_expired`` sheds reads whose deadline
    has already passed on arrival; ``shed_predicted`` additionally sheds
    reads whose predicted wait (queue depth × EWMA service time) exceeds
    the remaining deadline budget.  ``defer_capacity`` caps the
    deferred-read buffer and ``expire_deferred`` gives every buffered
    deferred read an expiry at the owning client's deadline, so a dead or
    partitioned lazy publisher bounces reads instead of leaking them.

    Updates are **never shed**: the sequential commit order admits no
    holes, so the update path is protected indirectly — by admission
    control and by the client ladder reducing read load.
    """

    queue_capacity: Optional[int] = 64
    shed_expired: bool = True
    shed_predicted: bool = True
    defer_capacity: Optional[int] = 256
    expire_deferred: bool = True
    min_retry_after: float = 0.05  # floor for the back-pressure hint
    # PressureMonitor shape.
    pressure_alpha: float = 0.2
    depth_thresholds: tuple[float, float, float] = (4.0, 8.0, 16.0)
    wait_ratio_thresholds: tuple[float, float, float] = (1.0, 2.0, 4.0)
    hysteresis: float = 0.7  # fraction of a threshold required to step down

    def __post_init__(self) -> None:
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(
                f"queue capacity must be >= 1 (or None), got {self.queue_capacity!r}"
            )
        if self.defer_capacity is not None and self.defer_capacity < 1:
            raise ValueError(
                f"defer capacity must be >= 1 (or None), got {self.defer_capacity!r}"
            )
        if self.min_retry_after < 0:
            raise ValueError("min_retry_after must be >= 0")
        if not 0.0 < self.pressure_alpha <= 1.0:
            raise ValueError(f"pressure_alpha {self.pressure_alpha!r} outside (0, 1]")
        if not 0.0 < self.hysteresis <= 1.0:
            raise ValueError(f"hysteresis {self.hysteresis!r} outside (0, 1]")
        for name in ("depth_thresholds", "wait_ratio_thresholds"):
            values = getattr(self, name)
            if len(values) != 3 or any(v <= 0 for v in values) or list(values) != sorted(values):
                raise ValueError(f"{name} must be three positive ascending values")

    @classmethod
    def disabled(cls) -> "OverloadConfig":
        """An inert config: monitoring only, no shedding, no expiry.

        Used by the default-off property test — a service carrying this
        config must behave bit-identically to one carrying ``None``.
        """
        return cls(
            queue_capacity=None,
            shed_expired=False,
            shed_predicted=False,
            defer_capacity=None,
            expire_deferred=False,
        )

    @property
    def inert(self) -> bool:
        """True when no knob can ever shed or expire a request."""
        return (
            self.queue_capacity is None
            and not self.shed_expired
            and not self.shed_predicted
            and self.defer_capacity is None
            and not self.expire_deferred
        )


# ---------------------------------------------------------------------------
# Pressure detection
# ---------------------------------------------------------------------------
class PressureMonitor:
    """EWMA-based overload detector for one replica.

    Observes every completed request: the queue depth left behind, the
    queuing delay ``t_q``, and the service time ``t_s``.  Two smoothed
    signals — queue depth and the wait/service ratio — are mapped to a
    discrete pressure level (0–3).  Rising pressure takes effect
    immediately; falling pressure must clear ``hysteresis`` × the lower
    threshold before the level steps down, so the exported level does not
    flap at a boundary.
    """

    def __init__(
        self,
        alpha: float = 0.2,
        depth_thresholds: tuple[float, float, float] = (4.0, 8.0, 16.0),
        wait_ratio_thresholds: tuple[float, float, float] = (1.0, 2.0, 4.0),
        hysteresis: float = 0.7,
    ) -> None:
        self.alpha = alpha
        self.depth_thresholds = tuple(depth_thresholds)
        self.wait_ratio_thresholds = tuple(wait_ratio_thresholds)
        self.hysteresis = hysteresis
        self.depth_ewma = 0.0
        self.wait_ratio_ewma = 0.0
        self.service_time_ewma = 0.0
        self.level = NOMINAL
        self.samples = 0

    @classmethod
    def from_config(cls, config: OverloadConfig) -> "PressureMonitor":
        return cls(
            alpha=config.pressure_alpha,
            depth_thresholds=config.depth_thresholds,
            wait_ratio_thresholds=config.wait_ratio_thresholds,
            hysteresis=config.hysteresis,
        )

    def _ewma(self, current: float, sample: float) -> float:
        if self.samples == 0:
            return sample
        return current + self.alpha * (sample - current)

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
            self._bucket(self.depth_ewma, self.depth_thresholds),
            self._bucket(self.wait_ratio_ewma, self.wait_ratio_thresholds),
        )
        if candidate > self.level:
            self.level = candidate
        elif candidate < self.level:
            # Hysteretic descent: require the signals to clear the band
            # below the current level by a margin before stepping down.
            step = self.level - 1
            depth_ok = self.depth_ewma < self._descend_bound(self.depth_thresholds, step)
            ratio_ok = self.wait_ratio_ewma < self._descend_bound(
                self.wait_ratio_thresholds, step
            )
            if depth_ok and ratio_ok:
                self.level = step
        return self.level

    def _descend_bound(self, thresholds: tuple[float, ...], step: int) -> float:
        # To *hold* level N the signal sits above thresholds[N-1]; to drop
        # to N-1 it must fall below hysteresis * thresholds[N-1].
        index = min(step, len(thresholds) - 1)
        return self.hysteresis * thresholds[index]

    def expected_wait(self, queue_depth: int) -> float:
        """Predicted queuing delay for a request joining the queue now."""
        return queue_depth * self.service_time_ewma


# ---------------------------------------------------------------------------
# Client-side degradation ladder
# ---------------------------------------------------------------------------
#: The highest priority level the ladder sheds at ``shed_level``.
SHED_PRIORITY = "bronze"


@dataclass(frozen=True)
class DegradationConfig:
    """Shape of the consistency-degradation ladder (DESIGN.md §11).

    At ladder level ``L`` (0 = nominal):

    * the staleness threshold ``a`` widens by ``staleness_widen × L``
      versions (secondaries defer less, fewer reads block on the lazy
      publisher);
    * ``P_c(d)`` is lowered by ``probability_relief × L`` (the selection
      algorithm picks fewer replicas per read — less fan-out load);
    * at ``prefer_secondaries_level`` and above, reads are redirected
      from primaries to the (lazier) secondary pool when one exists;
    * at ``shed_level``, reads whose priority is at or below
      :data:`SHED_PRIORITY` are shed locally before any replica sees them.
    """

    staleness_widen: int = 5
    probability_relief: float = 0.1
    prefer_secondaries_level: int = 2
    shed_level: int = 3
    max_level: int = 3
    step_cooldown: float = 0.25  # min seconds between downward steps
    recovery_window: float = 1.0  # quiet seconds required per upward step

    def __post_init__(self) -> None:
        if self.staleness_widen < 0:
            raise ValueError("staleness_widen must be >= 0")
        if not 0.0 <= self.probability_relief <= 1.0:
            raise ValueError("probability_relief outside [0, 1]")
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")
        if not 0 < self.shed_level <= self.max_level:
            raise ValueError("shed_level must be in [1, max_level]")
        if self.prefer_secondaries_level < 1:
            raise ValueError("prefer_secondaries_level must be >= 1")
        if self.step_cooldown < 0 or self.recovery_window <= 0:
            raise ValueError("invalid cooldown/recovery window")


@dataclass(frozen=True)
class DegradationStep:
    """One audited transition of the ladder."""

    time: float
    from_level: int
    to_level: int
    trigger: str  # "overload" | "pressure" | "recovered" | ...

    @property
    def down(self) -> bool:
        return self.to_level > self.from_level


class DegradationPolicy:
    """Hysteretic ladder a client gateway walks under overload evidence.

    Down-steps happen on :meth:`note_overload` (an
    :class:`~repro.core.requests.OverloadReply` arrived) or
    :meth:`note_pressure` (a replica reported pressure ≥ HIGH), rate-
    limited by ``step_cooldown``.  Up-steps happen on :meth:`note_ok`
    once ``recovery_window`` seconds pass with no trigger — one level at
    a time, so recovery is as gradual as degradation.

    The policy is pure bookkeeping: it owns no sockets and schedules no
    events.  The client consults :meth:`admit` before issuing each read.
    """

    def __init__(
        self,
        config: Optional[DegradationConfig] = None,
        priority_mapper: Optional[PriorityMapper] = None,
    ) -> None:
        self.config = config or DegradationConfig()
        self.priority_mapper = priority_mapper or PriorityMapper()
        self.shed_floor = self.priority_mapper.probability_for(SHED_PRIORITY)
        self.level = NOMINAL
        self.steps: list[DegradationStep] = []
        self.reads_shed = 0
        self._last_trigger = float("-inf")
        self._last_change = float("-inf")

    # -- evidence -------------------------------------------------------
    def note_overload(self, now: float, trigger: str = "overload") -> Optional[DegradationStep]:
        """An OverloadReply (or equivalent) arrived; maybe step down."""
        self._last_trigger = now
        if self.level >= self.config.max_level:
            return None
        if now - self._last_change < self.config.step_cooldown:
            return None
        return self._move(now, self.level + 1, trigger)

    def note_pressure(self, now: float, level: int) -> Optional[DegradationStep]:
        """A replica reported its pressure level (piggybacked on sheds)."""
        if level >= HIGH:
            return self.note_overload(now, trigger="pressure")
        return None

    def note_ok(self, now: float) -> Optional[DegradationStep]:
        """Quiet evidence (a timely reply); maybe step back up one level."""
        if self.level == NOMINAL:
            return None
        window = self.config.recovery_window
        if now - self._last_trigger < window or now - self._last_change < window:
            return None
        return self._move(now, self.level - 1, "recovered")

    def force_level(
        self, now: float, level: int, trigger: str = "controller"
    ) -> Optional[DegradationStep]:
        """Pin the ladder at ``level`` (closed-loop actuation, DESIGN.md §16).

        Bypasses the evidence cooldowns — the controller already
        rate-limits itself — but stays clamped to ``[0, max_level]`` and
        records the transition like any other step.  Pinning a level
        counts as trigger evidence so the evidence-driven ``note_ok``
        path cannot immediately unwind a controller hold.
        """
        level = max(0, min(level, self.config.max_level))
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
        ``shed_level`` and the request's priority — named, or inferred
        from its ``P_c(d)`` against the mapper's levels — is at or below
        :data:`SHED_PRIORITY`).  Otherwise returns the (possibly relaxed)
        spec: staleness widened, ``P_c(d)`` lowered, deadline untouched.
        """
        if self.level >= self.config.shed_level and self._sheddable(qos, priority):
            self.reads_shed += 1
            return None
        if self.level == NOMINAL:
            return qos
        relief = self.config.probability_relief * self.level
        return QoSSpec(
            staleness_threshold=qos.staleness_threshold
            + self.config.staleness_widen * self.level,
            deadline=qos.deadline,
            min_probability=max(0.0, qos.min_probability - relief),
        )

    def _sheddable(self, qos: QoSSpec, priority: Optional[str]) -> bool:
        if priority is not None:
            return self.priority_mapper.probability_for(priority) <= self.shed_floor
        return qos.min_probability <= self.shed_floor

    @property
    def prefer_secondaries(self) -> bool:
        return self.level >= self.config.prefer_secondaries_level

    # -- reporting ------------------------------------------------------
    def stats(self) -> dict[str, int]:
        down = sum(1 for s in self.steps if s.down)
        return {
            "degradation_steps_down": down,
            "degradation_steps_up": len(self.steps) - down,
            "degradation_reads_shed": self.reads_shed,
        }
