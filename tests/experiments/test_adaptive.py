"""Adaptive campaign: decision audits, cells, scoring, bit-identity."""

from __future__ import annotations

import json

import pytest

from repro.core.controller import ControllerConfig
from repro.experiments.adaptive import (
    ADAPTIVE_CONFIG,
    CAMPAIGN,
    STATIC_GRID,
    AdaptiveCellResult,
    audit_decisions,
    check_bit_identity,
    pooled_score,
    run_adaptive_cell,
    satisfaction_from_signals,
)
from repro.experiments.campaign import write_metrics_artifact
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


def test_pooled_score_is_mean_satisfaction_over_mean_cost():
    results = [
        _cell("controller", 0.9, 2.0),
        _cell("controller", 1.0, 3.0),
        _cell("static-0", 0.5, 2.0),
    ]
    assert pooled_score(results, "controller") == pytest.approx(0.95 / 2.5)
    assert pooled_score(results, "static-0") == pytest.approx(0.25)
    assert pooled_score(results, "static-1") == 0.0


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


#: See tests/integration/test_golden_streams.py for when (and how) to
#: re-record.  Re-recorded by PR 15, which was meant to move it twice over:
#: the ``predictor_cache_*`` series count differently under the new cache
#: key, and — the only thing that moves outcomes in this cell — the
#: Uniform(0, T_L) lazy-wait fallback now uses the T_L the publisher
#: announces while the controller tunes it, not the constructor's constant.
#: Re-recorded by PR 17: this cell injects load surges but no fault, so its
#: fabric stays fault-free and its heartbeats are evaluated at the sweep, not
#: sent.  Of the 618 digest lines only ``net_messages_sent``,
#: ``net_messages_delivered`` and ``net_delivery_delay_seconds`` moved (in the
#: snapshot and in the timeline: 29,498 sends became 27,818); every result
#: field, decision and client series stayed equal.
#: Re-recorded by PR 20 for the same reason one layer up: in the fault-free
#: fabric a group message is settled at delivery and its ack is not sent.  The
#: same three series moved and no other of the 618 lines (27,818 sends became
#: 16,810).
#: Re-recorded by PR 21: this cell's clients neither retry nor detect, so
#: their reads name their targets and the sequencer stamps them there alone.
#: 44 of the 618 lines moved (22 series, snapshot and timeline): the same
#: three ``net_*`` series (16,810 sends became 12,042), and the ``sum`` — never
#: a bucket count — of ``client_response_time_seconds`` for the three classes
#: (``browse`` 14.41212 s -> 14.41043 s over 379 reads, ``cart`` 14.19412 ->
#: 14.19299, ``login`` 9.50481 -> 9.50471) and of ``replica_staleness_wait_
#: seconds`` / ``replica_staleness_wait_component_seconds`` for the two
#: serving primaries and six secondaries (each up by 0.03-0.4 ms): under the
#: load surges a stamp or assignment sometimes overtook an earlier stamp to a
#: replica that was not serving that read and was held back for it; the
#: unsent stamp holds no FIFO slot, so the later message is handed over on
#: arrival — a read that must wait for state starts waiting that much sooner,
#: one that need not is answered that much sooner.  Every result field,
#: bucket count and controller decision stayed equal.
#: Re-recorded when a read came to evaluate only the candidates Algorithm 1
#: visits, so the ``predictor_*`` series count fewer evaluations; the
#: ``GOLDEN_CONTROLLER_CELL_WORK_FREE`` digest, recorded at the commit
#: before, holds.
#: Re-recorded when an evaluation came to count straight off the windows
#: with no ``S ⊛ W`` count cache: only the ``predictor_cache_*`` series
#: moved (they count lookups of the two memos, which this cell's walks
#: never make); the ``GOLDEN_CONTROLLER_CELL_WORK_FREE`` digest holds.
GOLDEN_CONTROLLER_CELL = (
    "d812bbc1abde6e9cd48bf94880b4efb2221b5963b038f665b88652b50ffebe4e"
)


#: The same cell without the work series (``tests/conftest.py``).
GOLDEN_CONTROLLER_CELL_WORK_FREE = (
    "236a3d003f2c2703a1fde9c2eebaf65c5b5903ef5247f0ebed07b8a67047c43e"
)


@pytest.mark.slow
def test_controller_cell_is_pinned(controller_cell, cell_digest, work_series):
    got = cell_digest(controller_cell)
    assert got == GOLDEN_CONTROLLER_CELL, f"the seeded cell moved (got {got})"
    work_free = cell_digest(controller_cell, work_series)
    assert work_free == GOLDEN_CONTROLLER_CELL_WORK_FREE, (
        f"more than work moved (got {work_free})"
    )


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
    pooled = {r["mode"]: r for r in records if r["event"] == "pooled"}
    assert set(pooled) == {"controller"} | {f"static-{i}" for i in STATIC_GRID}
    assert pooled["controller"]["score"] == pytest.approx(controller_cell.score)
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
