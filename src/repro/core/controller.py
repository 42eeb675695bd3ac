"""Closed-loop SLA guardian: the adaptive consistency controller.

The paper tunes consistency statically — a fixed lazy update interval
``T_L`` and fixed per-client ``(a, d, P_c)``.  PR 9's
:meth:`~repro.obs.slo.SloEngine.signals` turned the telemetry layer into
a *sensor* (windowed error-budget burn per SLO); the degradation ladder
(DESIGN.md §11) and the open-loop Poisson tuner (``core/tuning.py``) are
*actuators*.  This module closes the loop (DESIGN.md §16), in the spirit
of OptCon's SLA-aware tuning (arXiv:1603.07938) and the stepwise
relax/rollback discipline of arXiv:1212.1046: start conservative,
measure, relax gradually, and roll back the moment the error budget
burns hot.

On a fixed control epoch the :class:`ConsistencyController` reads the
live timeline, derives per-SLO burn signals, and walks one scalar — the
**relax index** — up and down a knob ladder.  Index 0 is the declared
(conservative, costly) configuration; each step up lengthens ``T_L``
(fewer propagation messages), widens every registered class's staleness
threshold ``a`` (fewer deferred reads), and lowers its ``P_c(d)`` (less
read fan-out).  Safety comes from four guardrails:

* an explicit state machine ``CONSERVATIVE → MEASURE → RELAX`` with a
  hysteretic ``ROLLBACK`` state that reverts to the last *confirmed*
  index on burn regression and refuses to relax again for
  ``hold_epochs``;
* rate-limited actuation — at most one relax step per
  :data:`COOLDOWN_EPOCHS`; rollbacks are never rate-limited;
* hard min/max bounds — ``T_L`` is clamped into ``[T_L_MIN, t_l_max]``
  by the controller *and* re-clamped by the handler against the
  open-loop consistency bound, and every per-class adjustment is clamped
  inside :meth:`QosAdjustment.apply` against the class's declared
  staleness ceiling and probability floor, so a misbehaving controller
  can never violate a declared bound;
* every decision is recorded (:class:`ControllerDecision`) with the full
  signals snapshot, knob values, and transitions — auditable by the
  ``repro adaptive`` invariant checks and rendered by ``repro dash``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.qos import QoSSpec
from repro.obs.metrics import MetricsRegistry
from repro.sim.tracing import NULL_TRACE, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.slo import SloEngine
    from repro.obs.timeseries import TimeseriesRecorder

__all__ = [
    "CONSERVATIVE",
    "MEASURE",
    "RELAX",
    "ROLLBACK",
    "STATE_LEVELS",
    "ControllerConfig",
    "ClassBounds",
    "QosAdjustment",
    "ControllerDecision",
    "ConsistencyController",
    "t_l_at",
    "class_adjustment_at",
]

#: Guardrail states.  ``CONSERVATIVE`` holds the declared knobs during
#: warmup; ``MEASURE`` watches the burn signals at the current index;
#: ``RELAX`` marks the epoch an up-step actuated; ``ROLLBACK`` is the
#: hysteretic hold after a revert.
CONSERVATIVE, MEASURE, RELAX, ROLLBACK = (
    "conservative",
    "measure",
    "relax",
    "rollback",
)

#: Numeric encoding of the states (the ``controller_state`` gauge).
STATE_LEVELS = {CONSERVATIVE: 0, MEASURE: 1, RELAX: 2, ROLLBACK: 3}

#: Share of its lifetime error budget every SLO must retain before the
#: controller may relax past the last confirmed-good index.
MIN_EXPLORE_BUDGET = 0.25

#: Third knob family: the degradation-ladder level registered clients are
#: forced to while any SLO regresses and through the post-rollback hold.
REGRESSION_LADDER_LEVEL = 1


#: The control period in simulated seconds: every epoch the controller
#: re-reads the burn signals and re-actuates.
CONTROL_EPOCH = 0.5

#: Epoch counts gating the state machine: ``WARMUP_EPOCHS`` before
#: leaving CONSERVATIVE, ``HEALTHY_EPOCHS`` consecutive quiet epochs
#: before a relax step, ``CONFIRM_EPOCHS`` quiet epochs at an index
#: before it becomes the rollback target (*last good*), and
#: ``COOLDOWN_EPOCHS`` between relax steps.  The cooldown exceeds the
#: confirmation so a confirmation can land between consecutive relax
#: steps — otherwise last_good never advances and every rollback falls
#: all the way to index 0.
WARMUP_EPOCHS = 2
HEALTHY_EPOCHS = 2
CONFIRM_EPOCHS = 3
COOLDOWN_EPOCHS = 4

#: The knob ladder: at relax index ``i``, ``T_L`` is the base interval
#: times ``T_L_STEP ** i``, clamped into ``[T_L_MIN, t_l_max]``; each
#: registered class widens ``a`` by ``STALENESS_STEP × i`` (to its
#: ceiling) and lowers ``P_c`` by ``PROBABILITY_STEP × i`` (to its floor),
#: unless its :class:`ClassBounds` names its own steps.
T_L_STEP = 2.0
T_L_MIN = 0.05
STALENESS_STEP = 4
PROBABILITY_STEP = 0.1


@dataclass(frozen=True)
class ControllerConfig:
    """Shape of the closed-loop controller (DESIGN.md §16).

    ``hold_epochs`` is how long the controller refuses to relax after a
    rollback (the hysteresis that stops relax/rollback flapping),
    ``max_relax_steps`` the top of the knob ladder, and ``t_l_max`` the
    ceiling ``T_L`` is clamped to.

    ``dry_run`` observes, decides, and records without actuating — the
    bit-identity property test runs a dry controller against a
    controller-free build.
    """

    hold_epochs: int = 4
    max_relax_steps: int = 4
    # Healthy means every SLO is inside these thresholds; a burn rate of
    # 1.0 consumes exactly the allotted budget.
    relax_fast_burn: float = 1.0
    relax_slow_burn: float = 1.0
    t_l_max: float = 10.0
    dry_run: bool = False

    def __post_init__(self) -> None:
        if self.hold_epochs < 0:
            raise ValueError("hold_epochs must be >= 0")
        if self.max_relax_steps < 0:
            raise ValueError("max_relax_steps must be >= 0")
        if self.t_l_max < T_L_MIN:
            raise ValueError(
                f"t_l_max {self.t_l_max!r} is below T_L_MIN {T_L_MIN}"
            )


@dataclass(frozen=True)
class ClassBounds:
    """Hard per-class guardrails declared at registration time.

    ``staleness_ceiling`` is the widest ``a`` the class tolerates and
    ``probability_floor`` the lowest ``P_c`` — the controller cannot
    cross either, whatever its state machine does.  The optional steps
    override the ladder's :data:`STALENESS_STEP` / :data:`PROBABILITY_STEP`
    for this class.
    """

    staleness_ceiling: int
    probability_floor: float
    staleness_step: Optional[int] = None
    probability_step: Optional[float] = None

    def __post_init__(self) -> None:
        if self.staleness_ceiling < 0:
            raise ValueError("staleness_ceiling must be >= 0")
        if not 0.0 <= self.probability_floor <= 1.0:
            raise ValueError("probability_floor outside [0, 1]")
        if self.staleness_step is not None and self.staleness_step < 0:
            raise ValueError("staleness_step must be >= 0")
        if self.probability_step is not None and self.probability_step < 0:
            raise ValueError("probability_step must be >= 0")


@dataclass(frozen=True)
class QosAdjustment:
    """A clamped per-class knob setting the controller hands a client.

    Deltas are non-negative by construction — the adjustment can only
    *loosen* the declared QoS, and :meth:`apply` clamps the result
    against the ceiling/floor as the last line of defense: even an
    adjustment built with absurd deltas cannot push ``a`` past the
    ceiling or ``P_c`` under the floor.
    """

    widen_staleness: int = 0
    relax_probability: float = 0.0
    staleness_ceiling: Optional[int] = None
    probability_floor: float = 0.0

    def __post_init__(self) -> None:
        if self.widen_staleness < 0:
            raise ValueError("widen_staleness must be >= 0")
        if self.relax_probability < 0.0:
            raise ValueError("relax_probability must be >= 0")
        if self.staleness_ceiling is not None and self.staleness_ceiling < 0:
            raise ValueError("staleness_ceiling must be >= 0")
        if not 0.0 <= self.probability_floor <= 1.0:
            raise ValueError("probability_floor outside [0, 1]")

    @property
    def identity(self) -> bool:
        return self.widen_staleness == 0 and self.relax_probability == 0.0

    def apply(self, qos: QoSSpec) -> QoSSpec:
        """The QoS a read is actually issued with under this adjustment."""
        if self.identity:
            return qos
        staleness = qos.staleness_threshold + self.widen_staleness
        if self.staleness_ceiling is not None:
            staleness = min(staleness, self.staleness_ceiling)
        staleness = max(0, staleness)
        floor = min(self.probability_floor, qos.min_probability)
        probability = max(qos.min_probability - self.relax_probability, floor)
        if (
            staleness == qos.staleness_threshold
            and probability == qos.min_probability
        ):
            return qos
        return QoSSpec(
            staleness_threshold=staleness,
            deadline=qos.deadline,
            min_probability=probability,
        )


def t_l_at(config: ControllerConfig, base: float, index: int) -> float:
    """The lazy update interval the knob ladder prescribes at ``index``."""
    raw = base * (T_L_STEP ** index)
    return min(config.t_l_max, max(T_L_MIN, raw))


def class_adjustment_at(bounds: ClassBounds, index: int) -> QosAdjustment:
    """The per-class adjustment the knob ladder prescribes at ``index``."""
    staleness_step = (
        bounds.staleness_step
        if bounds.staleness_step is not None
        else STALENESS_STEP
    )
    probability_step = (
        bounds.probability_step
        if bounds.probability_step is not None
        else PROBABILITY_STEP
    )
    return QosAdjustment(
        widen_staleness=staleness_step * index,
        relax_probability=probability_step * index,
        staleness_ceiling=bounds.staleness_ceiling,
        probability_floor=bounds.probability_floor,
    )


@dataclass
class ControllerDecision:
    """One audited control epoch: signals in, state + knobs out."""

    epoch: int
    time: float
    previous_state: str
    state: str
    relax_index: int
    last_good_index: int
    regression: bool
    healthy: bool
    rollback: bool
    t_l: Optional[float]
    knobs: Dict[str, Dict[str, float]]
    ladder_level: int
    actions: List[str] = field(default_factory=list)
    signals: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "time": self.time,
            "previous_state": self.previous_state,
            "state": self.state,
            "relax_index": self.relax_index,
            "last_good_index": self.last_good_index,
            "regression": self.regression,
            "healthy": self.healthy,
            "rollback": self.rollback,
            "t_l": self.t_l,
            "knobs": self.knobs,
            "ladder_level": self.ladder_level,
            "actions": list(self.actions),
            "signals": {k: dict(v) for k, v in self.signals.items()},
        }


@dataclass
class _ActuatedClass:
    clients: List[object]
    bounds: ClassBounds
    base_qos: QoSSpec


class ConsistencyController:
    """The epoch loop: sense burn, walk the knob ladder, stay in bounds.

    Wire-up order (see ``workloads/scenarios.py`` for the canonical
    pattern): construct with the sensors (engine + live recorder), call
    :meth:`register_service` for the ``T_L`` actuator,
    :meth:`register_class` per consistency class, optionally
    :meth:`register_ladder` per degradation-capable client, then
    :meth:`start`.  The epoch tick is a central, self-rescheduling sim
    event, so it survives any replica crash by construction, and every
    epoch re-actuates all *live* primaries idempotently: one that was down
    or out of the view when ``T_L`` moved adopts it at the next epoch.
    """

    def __init__(
        self,
        sim,
        engine: "SloEngine",
        recorder: "TimeseriesRecorder",
        config: Optional[ControllerConfig] = None,
        *,
        trace: Trace = NULL_TRACE,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "controller",
    ) -> None:
        self.sim = sim
        self.engine = engine
        self.recorder = recorder
        self.config = config or ControllerConfig()
        self.trace = trace
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.name = name

        self.state = CONSERVATIVE
        self.relax_index = 0
        self.last_good_index = 0
        self.decisions: List[ControllerDecision] = []
        self.epoch = 0
        self._healthy_streak = 0
        self._healthy_at_index = 0
        self._last_actuation_epoch = -(10**9)
        self._last_rollback_epoch = -(10**9)
        self._prev_budget: Dict[str, float] = {}
        self._tick_event = None

        # Actuator registries.
        self._t_l_targets: List[object] = []
        self._base_t_l: Optional[float] = None
        self._classes: Dict[str, _ActuatedClass] = {}
        self._ladders: List[object] = []
        self._current_t_l: Optional[float] = None
        self._ladder_level = 0

        labels = {"controller": name}
        self._g_state = self.metrics.gauge("controller_state", **labels)
        self._g_index = self.metrics.gauge("controller_relax_index", **labels)
        self._g_t_l = self.metrics.gauge("controller_t_l_seconds", **labels)
        self._m_epochs = self.metrics.counter("controller_epochs", **labels)
        self.relaxes = self.metrics.counter("controller_relaxes", **labels)
        self.rollbacks = self.metrics.counter("controller_rollbacks", **labels)

    # ------------------------------------------------------------------
    # Actuator registration
    # ------------------------------------------------------------------
    def register_service(self, service) -> None:
        """Adopt a service's primaries (sequencer included) as the T_L
        actuator."""
        handlers: List[object] = []
        if service.sequencer is not None:
            handlers.append(service.sequencer)
        handlers.extend(service.primaries)
        self._t_l_targets = handlers
        self._base_t_l = service.config.lazy_update_interval

    def register_class(
        self,
        name: str,
        clients: Sequence[object],
        bounds: ClassBounds,
        base_qos: QoSSpec,
    ) -> None:
        """Register one consistency class (e.g. ``browse``) for per-class
        ``(a, P_c)`` actuation, with its hard guardrails."""
        if name in self._classes:
            raise ValueError(f"class {name!r} already registered")
        if bounds.staleness_ceiling < base_qos.staleness_threshold:
            raise ValueError(
                f"class {name!r}: staleness ceiling "
                f"{bounds.staleness_ceiling} is tighter than the declared "
                f"base threshold {base_qos.staleness_threshold}"
            )
        if bounds.probability_floor > base_qos.min_probability:
            raise ValueError(
                f"class {name!r}: probability floor "
                f"{bounds.probability_floor} exceeds the declared base "
                f"P_c {base_qos.min_probability}"
            )
        self._classes[name] = _ActuatedClass(
            clients=list(clients), bounds=bounds, base_qos=base_qos
        )

    def register_ladder(self, ladder) -> None:
        """Register a client's degradation ladder for actuation."""
        self._ladders.append(ladder)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ConsistencyController":
        if self._tick_event is None:
            self._tick_event = self.sim.schedule(CONTROL_EPOCH, self._epoch_tick)
        return self

    def stop(self) -> None:
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------
    def _read_signals(self) -> Dict[str, Dict[str, float]]:
        return self.engine.signals(self.recorder.timeline())

    def _regressing(self, signals: Dict[str, Dict[str, float]]) -> bool:
        """Burn regression: any SLO paging or *actively* burning budget.

        ``budget_remaining`` is cumulative over the whole timeline, so a
        single bad episode leaves it negative forever — that alone must
        not pin the controller in ROLLBACK for the rest of the run.  An
        exhausted budget only counts as regression while it is still
        falling (the burn is ongoing); once it stabilises the controller
        may return to MEASURE, and :meth:`_budget_ok` still forbids
        *exploring* past the last confirmed index.
        """
        regressing = False
        for name, s in signals.items():
            budget = s["budget_remaining"]
            prev = self._prev_budget.get(name)
            self._prev_budget[name] = budget
            if s["alerting"] >= 1.0:
                regressing = True
            elif budget < 0.0 and (prev is None or budget < prev - 1e-9):
                regressing = True
        return regressing

    def _is_healthy(self, signals: Dict[str, Dict[str, float]]) -> bool:
        """Quiet enough to consider relaxing: every SLO's *recent* burn is
        inside budget (no signals at all is *not* evidence of health).
        Lifetime budget is deliberately excluded here — it gates how far
        we may explore (see ``_budget_ok``), not whether we may return to
        a setting that already survived confirmation."""
        cfg = self.config
        if not signals:
            return False
        return all(
            s["alerting"] < 1.0
            and s["fast_burn"] <= cfg.relax_fast_burn
            and s["slow_burn"] <= cfg.relax_slow_burn
            for s in signals.values()
        )

    def _budget_ok(self, signals: Dict[str, Dict[str, float]]) -> bool:
        """Enough lifetime error budget left to *experiment*: relaxing
        past ``last_good_index`` is an experiment and is only permitted
        while every SLO retains at least ``MIN_EXPLORE_BUDGET`` of its budget.
        Re-relaxing up to a confirmed-good index is not an experiment and
        stays allowed on recent health alone."""
        return all(
            s["budget_remaining"] >= MIN_EXPLORE_BUDGET for s in signals.values()
        )

    # ------------------------------------------------------------------
    # The control epoch
    # ------------------------------------------------------------------
    def _epoch_tick(self) -> None:
        self._tick_event = self.sim.schedule(CONTROL_EPOCH, self._epoch_tick)
        cfg = self.config
        self.epoch += 1
        self._m_epochs.inc()
        signals = self._read_signals()
        regression = self._regressing(signals)
        healthy = self._is_healthy(signals)
        budget_ok = self._budget_ok(signals)
        previous_state = self.state
        actions: List[str] = []
        rollback = False

        if self.state == CONSERVATIVE:
            if self.epoch >= WARMUP_EPOCHS:
                self.state = MEASURE
                self._healthy_streak = 0
        elif regression:
            self._healthy_streak = 0
            if self.relax_index > 0:
                # Revert to the last index that survived confirmation;
                # never rate-limited — safety moves are immediate.
                target = min(self.last_good_index, self.relax_index - 1)
                actions.append(f"rollback:{self.relax_index}->{target}")
                self.relax_index = target
                # last_good_index is deliberately NOT lowered: the
                # confirmation was earned under calm conditions and a
                # transient disturbance does not erase it.  If the index
                # is genuinely bad in the new regime, re-relaxing to it
                # triggers another (rate-limited) rollback.
                self._healthy_at_index = 0
                self._last_rollback_epoch = self.epoch
                self._last_actuation_epoch = self.epoch
                self.rollbacks.inc()
                rollback = True
                self.state = ROLLBACK
            elif self.state != ROLLBACK:
                # Nothing left to revert: hold the conservative knobs and
                # let the ladder actuation below absorb the regression.
                self.state = MEASURE
        else:
            if self.state == ROLLBACK:
                if self.epoch - self._last_rollback_epoch >= cfg.hold_epochs:
                    self.state = MEASURE
            elif self.state == RELAX:
                self.state = MEASURE
            if healthy:
                self._healthy_streak += 1
                self._healthy_at_index += 1
                if (
                    self._healthy_at_index >= CONFIRM_EPOCHS
                    and self.relax_index > self.last_good_index
                ):
                    actions.append(f"confirm:{self.relax_index}")
                    self.last_good_index = self.relax_index
                if (
                    self.state == MEASURE
                    and self._healthy_streak >= HEALTHY_EPOCHS
                    and self.relax_index < cfg.max_relax_steps
                    and (budget_ok or self.relax_index < self.last_good_index)
                    and self.epoch - self._last_actuation_epoch
                    >= COOLDOWN_EPOCHS
                    and self.epoch - self._last_rollback_epoch
                    >= cfg.hold_epochs
                ):
                    actions.append(
                        f"relax:{self.relax_index}->{self.relax_index + 1}"
                    )
                    self.relax_index += 1
                    self._healthy_streak = 0
                    self._healthy_at_index = 0
                    self._last_actuation_epoch = self.epoch
                    self.relaxes.inc()
                    self.state = RELAX
            else:
                self._healthy_streak = 0

        knobs = self._actuate(actions, regression)
        decision = ControllerDecision(
            epoch=self.epoch,
            time=self.sim.now,
            previous_state=previous_state,
            state=self.state,
            relax_index=self.relax_index,
            last_good_index=self.last_good_index,
            regression=regression,
            healthy=healthy,
            rollback=rollback,
            t_l=self._current_t_l,
            knobs=knobs,
            ladder_level=self._ladder_level,
            actions=actions,
            signals=signals,
        )
        self.decisions.append(decision)
        self._g_state.set(STATE_LEVELS[self.state])
        self._g_index.set(self.relax_index)
        if self._current_t_l is not None:
            self._g_t_l.set(self._current_t_l)
        if self.trace.enabled and (
            actions or self.state != previous_state
        ):
            self.trace.emit(
                self.sim.now,
                "controller.decision",
                self.name,
                epoch=self.epoch,
                state=self.state,
                relax_index=self.relax_index,
                actions=list(actions),
                regression=regression,
            )

    def _actuate(
        self, actions: List[str], regression: bool
    ) -> Dict[str, Dict[str, float]]:
        """Push the knobs for the current index to every actuator.

        Runs every epoch, idempotently: a primary that missed an
        actuation while crashed converges within one epoch of rejoining.
        Returns the absolute knob values per class for the decision record.
        """
        cfg = self.config
        # The emergency knob: hold registered ladders up while any SLO
        # regresses and through the post-rollback hold (hysteresis), so
        # the ladder does not flap with a flickering alert edge.
        regression_level = (
            REGRESSION_LADDER_LEVEL
            if (regression or self.state == ROLLBACK)
            else 0
        )
        knobs: Dict[str, Dict[str, float]] = {}
        t_l: Optional[float] = None
        if self._base_t_l is not None:
            t_l = t_l_at(cfg, self._base_t_l, self.relax_index)
            if self._current_t_l is not None and t_l != self._current_t_l:
                actions.append(f"t_l:{self._current_t_l:.3f}->{t_l:.3f}")
        for name, entry in self._classes.items():
            adjustment = class_adjustment_at(entry.bounds, self.relax_index)
            applied = adjustment.apply(entry.base_qos)
            knobs[name] = {
                "staleness_threshold": float(applied.staleness_threshold),
                "min_probability": applied.min_probability,
            }
            if not cfg.dry_run:
                for client in entry.clients:
                    client.qos_actuation = (
                        None if adjustment.identity else adjustment
                    )
        if not cfg.dry_run:
            if t_l is not None:
                self._current_t_l = t_l
                for handler in self._t_l_targets:
                    if handler.up:
                        handler.tuner.set_controller_interval(t_l)
            if regression_level != self._ladder_level:
                actions.append(
                    f"ladder:{self._ladder_level}->{regression_level}"
                )
            self._ladder_level = regression_level
            for ladder in self._ladders:
                ladder.force_degradation(regression_level)
        else:
            self._current_t_l = t_l
            self._ladder_level = regression_level
        return knobs
