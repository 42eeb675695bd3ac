"""Adaptive campaign: decision audits, cells, scoring, claims, bit-identity."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.controller import ControllerConfig
from repro.experiments import adaptive
from repro.experiments.adaptive import (
    ADAPTIVE_CONFIG,
    CAMPAIGN,
    STATIC_GRID,
    AdaptiveCellResult,
    audit_decisions,
    check_bit_identity,
    run_adaptive_cell,
    satisfaction_from_signals,
)
from repro.experiments.campaign import judge_claims, write_metrics_artifact
from repro.workloads.scenarios import OPERATION_CLASSES


CFG = ControllerConfig(hold_epochs=2, max_relax_steps=2, t_l_max=1.2)
CLASSES = {cls.name: cls for cls in OPERATION_CLASSES}


def decision(
    epoch,
    *,
    t_l=0.3,
    index=0,
    state="measure",
    regression=False,
    rollback=False,
    actions=(),
    knobs=None,
):
    return {
        "epoch": epoch,
        "time": epoch * 0.5,
        "previous_state": state,
        "state": state,
        "relax_index": index,
        "last_good_index": 0,
        "regression": regression,
        "healthy": not regression,
        "rollback": rollback,
        "t_l": t_l,
        "knobs": knobs or {},
        "ladder_level": 0,
        "actions": list(actions),
        "signals": {},
    }


# ---------------------------------------------------------------------------
# audit_decisions
# ---------------------------------------------------------------------------
def test_audit_clean_log_passes():
    log = [
        decision(1),
        decision(2, actions=["relax:0->1"], index=1, t_l=0.6),
        decision(6, actions=["relax:1->2"], index=2, t_l=1.2),
        decision(
            7, regression=True, rollback=True, index=0, actions=["rollback:2->0"]
        ),
        decision(10, actions=["relax:0->1"], index=1, t_l=0.6),
    ]
    assert audit_decisions(log, CFG, CLASSES) == []


def test_audit_flags_t_l_out_of_bounds():
    log = [decision(1, t_l=5.0)]
    violations = audit_decisions(log, CFG, CLASSES)
    assert any("bounds" in v and "T_L" in v for v in violations)


def test_audit_flags_index_out_of_bounds():
    log = [decision(1, index=CFG.max_relax_steps + 1)]
    violations = audit_decisions(log, CFG, CLASSES)
    assert any("relax index" in v for v in violations)


def test_audit_flags_knobs_past_class_guardrails():
    cart = CLASSES["cart"]
    bad = {
        "cart": {
            "staleness_threshold": cart.bounds.staleness_ceiling + 1,
            "min_probability": cart.bounds.probability_floor - 0.05,
        }
    }
    violations = audit_decisions([decision(1, knobs=bad)], CFG, CLASSES)
    assert any("above ceiling" in v for v in violations)
    assert any("below floor" in v for v in violations)


def test_audit_flags_unrolled_regression_while_relaxed():
    log = [
        decision(1, index=1),
        decision(2, index=1, regression=True),  # regressed, no rollback
    ]
    violations = audit_decisions(log, CFG, CLASSES)
    assert any("without rolling back" in v for v in violations)


def test_audit_flags_rollback_that_does_not_decrease_index():
    log = [
        decision(1, index=1),
        decision(2, index=1, regression=True, rollback=True),
    ]
    violations = audit_decisions(log, CFG, CLASSES)
    assert any("claimed a rollback" in v for v in violations)


def test_audit_flags_relaxes_closer_than_cooldown():
    log = [
        decision(1, actions=["relax:0->1"], index=1, t_l=0.6),
        decision(2, actions=["relax:1->2"], index=2, t_l=1.2),
    ]
    violations = audit_decisions(log, CFG, CLASSES)
    assert any("anti-flap" in v and "cooldown" in v for v in violations)


def test_audit_flags_relax_inside_post_rollback_hold():
    log = [
        decision(1, index=1),
        decision(
            2, index=0, regression=True, rollback=True,
            actions=["rollback:1->0"],
        ),
        decision(3, index=1, actions=["relax:0->1"], t_l=0.6),
    ]
    violations = audit_decisions(log, CFG, CLASSES)
    assert any("hold after rollback" in v for v in violations)


# ---------------------------------------------------------------------------
# Scoring helpers
# ---------------------------------------------------------------------------
def test_satisfaction_excludes_the_staleness_guard():
    signals = {
        "timeliness-a": {"compliance": 0.95, "objective": 0.95},
        "timeliness-b": {"compliance": 0.99, "objective": 0.90},  # capped at 1
        "staleness-guard": {"compliance": 0.10, "objective": 0.70},
    }
    assert satisfaction_from_signals(signals) == pytest.approx(1.0)
    assert satisfaction_from_signals({}) == 0.0
    assert (
        satisfaction_from_signals(
            {"staleness-guard": {"compliance": 0.1, "objective": 0.7}}
        )
        == 0.0
    )


def _cell(mode, satisfaction, cost):
    return AdaptiveCellResult(
        seed=0,
        mode=mode,
        duration=1.0,
        violations=[],
        storms=0,
        satisfaction=satisfaction,
        compliance={},
        cost_per_read=cost,
        reads_judged=100,
        replicas_selected=200,
        lazy_messages=10,
        rollbacks=0,
        relaxes=0,
        final_relax_index=0,
    )


def test_cell_score_and_clean():
    cell = _cell("controller", 0.8, 2.0)
    assert cell.score == pytest.approx(0.4)
    assert cell.clean
    cell.violations.append("x")
    assert not cell.clean


# ---------------------------------------------------------------------------
# One real cell end to end (small)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def controller_cell():
    return run_adaptive_cell(31, "controller", duration=5.0)


@pytest.mark.slow
def test_controller_cell_is_pinned(controller_cell, cell_digest, work_series, pin):
    """The controller cell's digest (``tests/experiments/conftest.py``), and
    the same without the work series (``work_free``): a change that only
    evaluates less moves the first and not the second."""
    pin("adaptive.controller", cell_digest(controller_cell))
    pin("adaptive.controller.work_free", cell_digest(controller_cell, work_series))


@pytest.mark.slow
def test_controller_cell_runs_and_audits_clean(controller_cell):
    result = controller_cell
    assert result.violations == []
    assert result.reads_judged > 0
    assert result.cost_per_read > 0
    assert result.decisions, "controller cell must log decisions"
    assert set(result.compliance) == {
        f"timeliness-{cls.name}" for cls in OPERATION_CLASSES
    }
    json.dumps(result.decisions)  # artifact-safe


@pytest.mark.slow
def test_metrics_artifact_leads_with_meta_and_carries_the_decision_log(
    controller_cell, tmp_path
):
    path = tmp_path / "adaptive.jsonl"
    write_metrics_artifact(CAMPAIGN, str(path), [controller_cell], seeds=[31])
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0]["event"] == "meta"
    assert records[0]["experiment"] == "adaptive"
    (cell,) = [r for r in records if r["event"] == "cell"]
    assert cell["mode"] == "controller" and cell["violations"] == []
    claims = [r for r in records if r["event"] == "claim"]
    assert [c["claim"]["baseline"] for c in claims] == [
        f"static-{i}" for i in STATIC_GRID
    ]
    # No static cell ran: no pair, no median, no claim won.
    assert all(c["median"] is None and not c["passed"] for c in claims)
    (log,) = [r for r in records if r["event"] == "controller"]
    assert log["decisions"] == controller_cell.decisions
    (timeline,) = [r for r in records if r["event"] == "timeline"]
    assert timeline["mode"] == "controller"


@pytest.mark.slow
def test_static_cell_pins_knobs_open_loop():
    result = run_adaptive_cell(31, "static-1", duration=4.0)
    assert result.violations == []
    assert result.rollbacks == 0 and result.relaxes == 0
    assert result.final_relax_index == 1
    assert not result.decisions


@pytest.mark.slow
def test_a_dry_run_controller_fails_the_claim_on_static_0(monkeypatch):
    """A ``dry_run`` controller observes and never actuates, so its cells
    are bit-identical to ``static-0``'s: every seed ties, and zero
    differences must not pass "controller beats static-0"."""
    dry = dataclasses.replace(ADAPTIVE_CONFIG, dry_run=True)
    monkeypatch.setattr(adaptive, "ADAPTIVE_CONFIG", dry)
    results = [
        run_adaptive_cell(seed, mode, duration=4.0)
        for seed in (1, 2, 3)
        for mode in ("controller", "static-0")
    ]
    static_0 = judge_claims(CAMPAIGN.claims, results)[0]
    assert static_0.claim.baseline == "static-0"
    assert (static_0.wins, static_0.losses, static_0.ties) == (0, 0, 3)
    assert not static_0.passed


def test_static_grid_covers_the_ladder():
    assert STATIC_GRID[0] == 0
    assert list(STATIC_GRID) == sorted(STATIC_GRID)
    assert ADAPTIVE_CONFIG.max_relax_steps <= max(STATIC_GRID)


# ---------------------------------------------------------------------------
# Bit-identity property: a disabled/dry controller is invisible
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_dry_run_controller_is_bit_identical_to_no_controller():
    assert check_bit_identity(seed=5, duration=3.0) == []
