"""Closed-loop SLA guardian: state machine, guardrails, actuation.

Unit tests drive :class:`ConsistencyController` with scripted burn
signals (no service at all), so every transition is deterministic;
integration tests check the T_L precedence arbiter in the sequential
handler and the epoch tick surviving a lazy-publisher crash mid-epoch
(DESIGN.md §16).
"""

from __future__ import annotations

import pytest

from repro.core.controller import (
    CONSERVATIVE,
    CONTROL_EPOCH,
    COOLDOWN_EPOCHS,
    MEASURE,
    REGRESSION_LADDER_LEVEL,
    RELAX,
    ROLLBACK,
    T_L_MIN,
    ClassBounds,
    ConsistencyController,
    ControllerConfig,
    QosAdjustment,
    class_adjustment_at,
    t_l_at,
)
from repro.core.qos import QoSSpec
from repro.sim.kernel import Simulator


# ---------------------------------------------------------------------------
# Scripted-signal harness
# ---------------------------------------------------------------------------
def sig(alerting=0.0, budget=1.0, fast=0.0, slow=0.0, name="slo"):
    return {
        name: {
            "time": 0.0,
            "compliance": 1.0,
            "objective": 0.99,
            "budget_remaining": budget,
            "fast_burn": fast,
            "slow_burn": slow,
            "alerting": alerting,
        }
    }


HEALTHY = sig()
ALERTING = sig(alerting=1.0, fast=20.0, slow=8.0, budget=0.5)


class ScriptedEngine:
    """Replays one scripted signal dict per epoch; repeats the last."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def signals(self, timeline):
        index = min(self.calls, len(self.script) - 1)
        self.calls += 1
        return {k: dict(v) for k, v in self.script[index].items()}


class NullRecorder:
    def timeline(self):
        return None


class FakeHandler:
    """Records the intervals pushed to its tuner; always up."""

    def __init__(self):
        self.up = True
        self.intervals = []
        self.tuner = self

    def set_controller_interval(self, interval):
        self.intervals.append(interval)


class FakeClient:
    def __init__(self):
        self.qos_actuation = None
        self.forced_levels = []

    def force_degradation(self, level, trigger="controller"):
        self.forced_levels.append(level)


def make_controller(script, config=None, **kwargs):
    sim = Simulator()
    controller = ConsistencyController(
        sim,
        ScriptedEngine(script),
        NullRecorder(),
        config or ControllerConfig(),
        **kwargs,
    )
    return sim, controller


def run_epochs(sim, controller, epochs):
    controller.start()
    sim.run(until=sim.now + epochs * CONTROL_EPOCH + 1e-9)


# The constants' shape (warmup 2, relax after 2 healthy epochs, confirm
# in 3, cooldown 4) with a one-epoch hold so trajectories stay short:
# under steady health the first relax lands at epoch 4, then every 4th.
FAST = ControllerConfig(hold_epochs=1, max_relax_steps=3)


# ---------------------------------------------------------------------------
# State machine
# ---------------------------------------------------------------------------
def test_warmup_holds_conservative_then_measures_then_relaxes():
    sim, c = make_controller([HEALTHY], config=FAST)
    run_epochs(sim, c, 4)
    states = [d.state for d in c.decisions]
    # Epoch 1 is warmup (CONSERVATIVE -> MEASURE transition happens at
    # epoch >= WARMUP_EPOCHS); a relax follows once the healthy streak
    # builds.
    assert states[0] in (CONSERVATIVE, MEASURE)
    assert RELAX in states
    first_relax = states.index(RELAX)
    assert all(s != RELAX for s in states[:first_relax])
    assert c.relax_index >= 1


def test_relax_steps_respect_cooldown_and_max():
    sim, c = make_controller([HEALTHY], config=FAST)
    run_epochs(sim, c, 12)
    relax_epochs = [
        d.epoch
        for d in c.decisions
        if any(a.startswith("relax:") for a in d.actions)
    ]
    assert relax_epochs, "controller never relaxed under healthy signals"
    gaps = [b - a for a, b in zip(relax_epochs, relax_epochs[1:])]
    assert all(g >= COOLDOWN_EPOCHS for g in gaps)
    assert c.relax_index <= FAST.max_relax_steps
    # Healthy forever: the walk tops out at max_relax_steps exactly.
    assert c.relax_index == FAST.max_relax_steps


def test_rollback_reverts_to_last_good_and_holds():
    # Healthy long enough to confirm index 1 (epoch 7) and reach index 2
    # (epoch 8), then a sustained alert.
    script = [HEALTHY] * 8 + [ALERTING] * 3 + [HEALTHY] * 6
    sim, c = make_controller(script, config=FAST)
    run_epochs(sim, c, len(script))
    rollback_decisions = [d for d in c.decisions if d.rollback]
    assert rollback_decisions, "alert never caused a rollback"
    first = rollback_decisions[0]
    # Safety moves are immediate: the rollback lands on the first
    # alerting epoch, in the same decision that observed the regression.
    assert first.regression
    assert first.state == ROLLBACK
    # The revert target is the last confirmed index (or one below the
    # current index, whichever is lower).
    assert first.relax_index <= first.last_good_index
    # No relax within hold_epochs of a rollback.
    rollback_epochs = {d.epoch for d in rollback_decisions}
    for d in c.decisions:
        if any(a.startswith("relax:") for a in d.actions):
            assert all(
                d.epoch - e >= FAST.hold_epochs for e in rollback_epochs
                if e < d.epoch
            )


def test_rollback_preserves_confirmed_index_for_recovery():
    # Confirm index 1, alert long enough to roll all the way to 0, then
    # recover: the controller must climb back to the confirmed index
    # without fresh budget (the disturbance does not erase confirmation).
    script = (
        [HEALTHY] * 8
        + [dict(ALERTING)] * 4
        + [sig(budget=-2.0)] * 8  # healthy windows, lifetime budget spent
    )
    sim, c = make_controller(script, config=FAST)
    run_epochs(sim, c, len(script))
    assert c.last_good_index >= 1
    assert c.rollbacks.value >= 1
    # Re-relaxed back up to (exactly) the confirmed index: exploring
    # beyond it is blocked by the exhausted lifetime budget.
    assert c.relax_index == c.last_good_index


def test_budget_gate_blocks_exploration_beyond_last_good():
    # Healthy recent windows but lifetime budget below MIN_EXPLORE_BUDGET from
    # the start: nothing is confirmed, so no relax ever fires.
    script = [sig(budget=0.1)]
    sim, c = make_controller(script, config=FAST)
    run_epochs(sim, c, 8)
    assert c.relax_index == 0
    assert c.relaxes.value == 0


def test_budget_slope_regression_clears_when_burn_stops():
    # Budget goes negative while falling (active burn), then stabilises.
    script = (
        [HEALTHY] * 4
        + [sig(budget=-1.0), sig(budget=-2.0), sig(budget=-3.0)]
        + [sig(budget=-3.0)] * 4
    )
    sim, c = make_controller(script, config=FAST)
    run_epochs(sim, c, len(script))
    falling = [d for d in c.decisions if d.regression]
    assert falling, "falling budget never flagged regression"
    # Once the budget stabilises the regression flag clears.
    assert not c.decisions[-1].regression
    assert c.decisions[-1].state in (MEASURE, RELAX)


def test_regression_at_index_zero_engages_ladder_not_rollback():
    client = FakeClient()
    sim, c = make_controller([ALERTING], config=FAST)
    c.register_ladder(client)
    run_epochs(sim, c, 3)
    assert c.rollbacks.value == 0
    assert c.relax_index == 0
    assert c.decisions[-1].ladder_level == REGRESSION_LADDER_LEVEL
    assert client.forced_levels[-1] == REGRESSION_LADDER_LEVEL


def test_ladder_releases_after_regression_clears():
    client = FakeClient()
    script = [ALERTING] * 2 + [HEALTHY] * 4
    sim, c = make_controller(script, config=FAST)
    c.register_ladder(client)
    run_epochs(sim, c, len(script))
    assert client.forced_levels[-1] == 0
    assert c.decisions[-1].ladder_level == 0


# ---------------------------------------------------------------------------
# Knob ladder math and hard bounds
# ---------------------------------------------------------------------------
def test_t_l_ladder_doubles_and_clamps():
    cfg = ControllerConfig(t_l_max=1.0)  # T_L_STEP 2, T_L_MIN 0.05
    assert t_l_at(cfg, 0.3, 0) == pytest.approx(0.3)
    assert t_l_at(cfg, 0.3, 1) == pytest.approx(0.6)
    assert t_l_at(cfg, 0.3, 2) == pytest.approx(1.0)  # clamped at max
    assert t_l_at(cfg, 0.01, 0) == pytest.approx(0.05)  # clamped at min


def test_class_adjustment_uses_bounds_overrides():
    bounds = ClassBounds(
        staleness_ceiling=10, probability_floor=0.5,
        staleness_step=1, probability_step=0.01,
    )
    adj = class_adjustment_at(bounds, 3)  # not STALENESS_STEP 4 / 0.1
    assert adj.widen_staleness == 3
    assert adj.relax_probability == pytest.approx(0.03)
    assert adj.staleness_ceiling == 10
    assert adj.probability_floor == 0.5


def test_qos_adjustment_clamps_to_ceiling_and_floor():
    base = QoSSpec(staleness_threshold=4, deadline=0.4, min_probability=0.9)
    absurd = QosAdjustment(
        widen_staleness=1000,
        relax_probability=5.0,
        staleness_ceiling=16,
        probability_floor=0.6,
    )
    applied = absurd.apply(base)
    assert applied.staleness_threshold == 16
    assert applied.min_probability == pytest.approx(0.6)
    assert applied.deadline == base.deadline
    # Identity adjustment returns the spec untouched.
    assert QosAdjustment().apply(base) is base


def test_qos_adjustment_floor_never_raises_declared_probability():
    # A floor above the declared P_c must not tighten the QoS.
    base = QoSSpec(staleness_threshold=4, deadline=0.4, min_probability=0.5)
    adj = QosAdjustment(relax_probability=0.2, probability_floor=0.8)
    assert adj.apply(base).min_probability == pytest.approx(0.5)


def test_adjustment_rejects_tightening_deltas():
    with pytest.raises(ValueError):
        QosAdjustment(widen_staleness=-1)
    with pytest.raises(ValueError):
        QosAdjustment(relax_probability=-0.1)


def test_register_class_rejects_bounds_tighter_than_base():
    sim, c = make_controller([HEALTHY])
    qos = QoSSpec(staleness_threshold=8, deadline=0.4, min_probability=0.7)
    with pytest.raises(ValueError):
        c.register_class(
            "x", [], ClassBounds(staleness_ceiling=4, probability_floor=0.1),
            qos,
        )
    with pytest.raises(ValueError):
        c.register_class(
            "x", [], ClassBounds(staleness_ceiling=99, probability_floor=0.9),
            qos,
        )


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(hold_epochs=-1)
    with pytest.raises(ValueError):
        ControllerConfig(max_relax_steps=-1)
    with pytest.raises(ValueError):
        ControllerConfig(t_l_max=T_L_MIN / 2)


# ---------------------------------------------------------------------------
# Actuation plumbing
# ---------------------------------------------------------------------------
def test_actuation_reaches_handlers_and_clients():
    handler = FakeHandler()
    client = FakeClient()
    sim, c = make_controller([HEALTHY], config=FAST)
    c._t_l_targets = [handler]
    c._base_t_l = 0.3
    c.register_class(
        "cart",
        [client],
        ClassBounds(staleness_ceiling=16, probability_floor=0.6),
        QoSSpec(staleness_threshold=4, deadline=0.4, min_probability=0.85),
    )
    run_epochs(sim, c, 4)
    assert c.relax_index >= 1
    assert handler.intervals[-1] == pytest.approx(
        t_l_at(FAST, 0.3, c.relax_index)
    )
    assert client.qos_actuation is not None
    applied = client.qos_actuation.apply(
        QoSSpec(staleness_threshold=4, deadline=0.4, min_probability=0.85)
    )
    assert applied.staleness_threshold <= 16
    assert applied.min_probability >= 0.6


def test_dry_run_decides_but_never_actuates():
    handler = FakeHandler()
    client = FakeClient()
    cfg = ControllerConfig(
        hold_epochs=FAST.hold_epochs,
        max_relax_steps=FAST.max_relax_steps,
        dry_run=True,
    )
    sim, c = make_controller([HEALTHY], config=cfg)
    c._t_l_targets = [handler]
    c._base_t_l = 0.3
    c.register_class(
        "cart",
        [client],
        ClassBounds(staleness_ceiling=16, probability_floor=0.6),
        QoSSpec(staleness_threshold=4, deadline=0.4, min_probability=0.85),
    )
    c.register_ladder(client)
    run_epochs(sim, c, 6)
    # Decisions recorded, knobs computed ...
    assert c.relax_index >= 1
    assert c.decisions[-1].knobs["cart"]
    # ... but nothing touched the actuators.
    assert handler.intervals == []
    assert client.qos_actuation is None
    assert client.forced_levels == []


def test_decision_bounds_hold_under_adversarial_signals():
    # Random-ish alternation of health and alerts; every decision stays
    # inside the declared hard bounds.
    script = [HEALTHY, ALERTING, HEALTHY, HEALTHY, ALERTING] * 6
    sim, c = make_controller(script, config=FAST)
    c._base_t_l = 0.3
    run_epochs(sim, c, len(script))
    for d in c.decisions:
        assert 0 <= d.relax_index <= FAST.max_relax_steps
        assert 0 <= d.last_good_index <= d.relax_index or d.rollback or (
            d.last_good_index >= d.relax_index
        )
        if d.t_l is not None:
            assert T_L_MIN <= d.t_l <= FAST.t_l_max


def test_decision_to_dict_round_trips_fields():
    sim, c = make_controller([HEALTHY], config=FAST)
    run_epochs(sim, c, 2)
    record = c.decisions[-1].to_dict()
    for key in (
        "epoch", "time", "previous_state", "state", "relax_index",
        "last_good_index", "regression", "healthy", "rollback", "t_l",
        "knobs", "ladder_level", "actions", "signals",
    ):
        assert key in record


def test_stop_cancels_the_epoch_tick():
    sim, c = make_controller([HEALTHY], config=FAST)
    c.start()
    sim.run(until=2.5)
    seen = len(c.decisions)
    c.stop()
    sim.run(until=10.0)
    assert len(c.decisions) == seen


# ---------------------------------------------------------------------------
# T_L precedence: closed loop over open loop, bounded by it (DESIGN.md §16)
# ---------------------------------------------------------------------------
def _precedence_testbed(adaptive=False):
    from repro.core.service import ServiceConfig, build_testbed
    from repro.core.tuning import StalenessTarget
    from repro.net.latency import FixedLatency
    from repro.sim.rng import Constant

    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=2,
        lazy_update_interval=0.5,
        read_service_time=Constant(0.01),
        adaptive_lazy_target=(
            StalenessTarget(threshold=5, probability=0.9) if adaptive else None
        ),
    )
    return build_testbed(config, seed=7, latency=FixedLatency(0.001))


def test_controller_interval_overrides_base():
    testbed = _precedence_testbed(adaptive=False)
    handler = testbed.service.primaries[0]
    assert handler.tuner.effective() == pytest.approx(0.5)
    handler.tuner.set_controller_interval(1.2)
    assert handler.lazy_update_interval == pytest.approx(1.2)


def test_controller_interval_clamped_by_open_loop_bound():
    testbed = _precedence_testbed(adaptive=True)
    handler = testbed.service.primaries[0]
    assert handler.tuner.open_loop is not None
    bound = handler.tuner.open_loop.recommended_interval()
    # Closed loop below the bound: taken verbatim.
    handler.tuner.set_controller_interval(bound / 2)
    assert handler.tuner.effective() == pytest.approx(bound / 2)
    # Closed loop above the bound: the open-loop consistency bound wins.
    handler.tuner.set_controller_interval(bound * 4)
    assert handler.tuner.effective() == pytest.approx(bound)


def test_controller_interval_rejects_nonpositive():
    testbed = _precedence_testbed()
    handler = testbed.service.primaries[0]
    with pytest.raises(ValueError):
        handler.tuner.set_controller_interval(0.0)
    with pytest.raises(ValueError):
        handler.tuner.set_controller_interval(-1.0)


# ---------------------------------------------------------------------------
# Failover: the epoch tick and actuation survive a publisher crash
# ---------------------------------------------------------------------------
def test_epoch_tick_survives_publisher_crash_mid_epoch():
    from repro.workloads.scenarios import build_operation_mix_scenario

    scenario = build_operation_mix_scenario(
        seed=11,
        duration=10.0,
        controller_config=ControllerConfig(hold_epochs=1, max_relax_steps=1),
        num_primaries=3,
        num_secondaries=2,
    )
    sim = scenario.sim
    service = scenario.service
    controller = scenario.controller
    assert controller is not None

    # Let the controller relax, then crash the designated lazy publisher
    # mid-epoch (x.25 lands between two x.0/x.5 epoch ticks).
    sim.run(until=4.25)
    assert controller.relax_index >= 1
    publisher = next(
        p for p in service.primaries if p.is_lazy_publisher
    )
    epochs_before = controller.epoch
    scenario.testbed.network.crash(publisher.name)
    sim.run(until=8.25)

    # The central epoch tick never missed a beat.
    assert controller.epoch > epochs_before + 4
    # A new publisher took over and runs at the controller's interval,
    # not the configured base.
    new_publisher = next(
        p
        for p in service.primaries
        if p.up and p.is_lazy_publisher
    )
    assert new_publisher.name != publisher.name
    t_l = controller.decisions[-1].t_l
    assert t_l is not None
    assert new_publisher.lazy_update_interval == pytest.approx(
        min(t_l, new_publisher.lazy_update_interval)
        if new_publisher.tuner.open_loop is not None
        else t_l
    )

    # The crashed publisher recovers and re-adopts the live interval at
    # the next epoch's actuation instead of keeping its stale pre-crash
    # value.
    scenario.testbed.network.recover(publisher.name)
    sim.run(until=12.0)
    assert publisher.up
    assert publisher.lazy_update_interval == pytest.approx(
        controller.decisions[-1].t_l
    )
