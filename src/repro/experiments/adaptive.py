"""Closed-loop SLA-guardian campaigns: adaptive controller vs. static grid.

Drives the login/cart/browse operation-class mix (see
:mod:`repro.workloads.scenarios`) under time-varying load through two
kinds of cells:

* **comparison cells** — every seed runs the closed-loop
  :class:`~repro.core.controller.ConsistencyController` *and* each
  setting of a static knob grid (``static-0`` … ``static-N``, the same
  relax ladder the controller walks, pinned open-loop).  Deterministic
  load surges are scheduled mid-run, so a fixed relaxed setting burns
  SLO budget during the surge and a fixed conservative setting pays
  maximum replication cost during the calm;
* **chaos cells** — the controller alone under seeded storm chaos
  (``load_storm`` faults), auditing the guardrail invariants where
  regressions actually happen.

Controller invariants audited on every decision log (DESIGN.md §16):

* **bounds** — ``T_L`` stays inside ``[T_L_MIN, t_l_max]``, every
  per-class staleness knob at or under its ceiling, every probability
  knob at or above its floor, the relax index inside
  ``[0, max_relax_steps]``;
* **anti-flap** — consecutive relax steps are at least
  ``COOLDOWN_EPOCHS`` apart and never within ``hold_epochs`` of a
  rollback;
* **rollback coupling** — every epoch that observes a burn regression
  while relaxed (index > 0) rolls back in that same epoch (safety moves
  are never rate-limited);
* **guardrails exercised** — across the chaos cells at least one
  rollback fired (otherwise the audit is vacuous).

Claims (judged by the campaign skeleton, paired by seed): the
controller's *SLA-satisfaction-per-cost* score beats every static
setting's, where satisfaction is the mean over per-class SLOs of
``min(1, compliance / objective)`` and cost is replication messages
(replica selections + lazy-update fan-out) per judged read.

A **bit-identity** gate runs alongside: a ``dry_run`` controller — one
that observes, decides, and records but never actuates — must leave the
workload byte-for-byte identical to a controller-free build (same reader
outcomes, same non-controller telemetry).

``python -m repro.experiments.adaptive --check`` (or ``repro adaptive``)
exits non-zero on any violation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.client import WALL_CLOCK_SERIES
from repro.core.controller import (
    COOLDOWN_EPOCHS,
    STATE_LEVELS,
    T_L_MIN,
    ControllerConfig,
)
from repro.experiments.campaign import (
    Campaign,
    Claim,
    chaos_engine,
    counter_sum,
    dump_violation_trace,
    engine_events,
    main as campaign_main,
    run_phases,
    storm_chaos_config,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.tracing import Trace
from repro.workloads.scenarios import build_operation_mix_scenario

WARMUP = 2.0
DRAIN_GRACE = 5.0

#: Static grid: the same knob-ladder indices the controller walks.
STATIC_GRID = (0, 1, 2, 3)

#: The modes the controller's score is compared across, and the suite's
#: cells per seed (the chaos cell audits guardrails, not score).
SCORED_MODES = ("controller",) + tuple(f"static-{i}" for i in STATIC_GRID)
MODES = SCORED_MODES + ("chaos",)

#: Arrival-rate multiplier range of one storm in the chaos cells.
STORM_FACTOR = (10.0, 25.0)

#: Deterministic load surges for the comparison cells, as
#: ``(start_fraction, end_fraction, rate_factor)`` of the campaign
#: duration (offsets are relative to the end of warmup).  A x20 *write*
#: surge makes secondaries lag hard: any relaxed lazy interval starts
#: deferring reads past their deadlines (deferral waits are bounded by
#: T_L, and the class deadlines sit just above the conservative 0.3 s
#: interval), while the conservative setting rides the surge out.
SURGES = ((0.30, 0.55, 20.0), (0.70, 0.95, 20.0))

#: Controller shape used by every cell (closed-loop cells actuate it,
#: static cells pin their knobs on the same ladder).  ``t_l_max`` is the
#: operator-declared ceiling: 1.2 s keeps the lazy interval compatible
#: with the login deadline, so exploration pressure lands on the
#: staleness/probability knobs where the ceilings and floors bite.
#: ``relax_slow_burn`` is loosened well past the default: the login
#: class budgets ~1% errors, so a strict slow-window gate would read as
#: "zero misses in the last 6 s" and keep the controller exiled at the
#: conservative index long after a surge has passed — recovery health is
#: instead judged on the fast window plus the paging signal, while the
#: *lifetime* budget still caps exploration beyond the last confirmed
#: index.  ``hold_epochs`` is shortened to match: one epoch of
#: post-rollback hysteresis per surge is enough when re-relaxing can
#: only return to a previously confirmed index.
#: ``max_relax_steps`` caps exploration one step past baseline: every
#: knob index is clean under calm load, so an uncapped greedy walk would
#: climb the whole ladder between surges and take the first surge at the
#: most fragile setting — and the guard's detection lag grows with the
#: lazy interval, so deep indices can even get *confirmed* mid-surge
#: before their misses land.  ``relax_fast_burn`` is tightened so the
#: guard's elevated burn (well under the default 1.0 while a surge is
#: still draining) vetoes relaxing back into pressure.
ADAPTIVE_CONFIG = ControllerConfig(
    t_l_max=1.2,
    relax_fast_burn=0.5,
    relax_slow_burn=10.0,
    hold_epochs=2,
    max_relax_steps=1,
)


@dataclass
class AdaptiveCellResult:
    """Outcome of one (seed, mode) campaign cell."""

    seed: int
    mode: str  # "controller" | "chaos" | "static-<i>"
    duration: float
    violations: list[str]
    storms: int
    satisfaction: float
    compliance: Dict[str, float]
    cost_per_read: float
    reads_judged: int
    replicas_selected: int
    lazy_messages: int
    rollbacks: int
    relaxes: int
    final_relax_index: int
    decisions: list[dict] = field(default_factory=list)
    events: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    timeline: Optional[dict] = None

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def score(self) -> float:
        """SLA-satisfaction per unit replication cost."""
        if self.cost_per_read <= 0.0:
            return 0.0
        return self.satisfaction / self.cost_per_read


def satisfaction_from_signals(signals: Dict[str, Dict[str, float]]) -> float:
    """Mean over *timeliness* SLOs of ``min(1, compliance / objective)``.

    The staleness-guard spec is the controller's leading indicator, not
    part of the customer-facing SLA, so it is excluded here (it burns by
    design whenever load surges, at every knob setting)."""
    specs = {k: s for k, s in signals.items() if k.startswith("timeliness-")}
    if not specs:
        return 0.0
    ratios = [
        min(1.0, s["compliance"] / s["objective"]) if s["objective"] > 0 else 1.0
        for s in specs.values()
    ]
    return sum(ratios) / len(ratios)


def run_adaptive_cell(
    seed: int,
    mode: str,
    duration: float = 12.0,
    trace_dir: Optional[str] = None,
) -> AdaptiveCellResult:
    """Run one seeded campaign cell.

    ``mode`` is ``"controller"`` (closed loop + deterministic surges),
    ``"chaos"`` (closed loop + seeded storm chaos), or ``"static-<i>"``
    (knobs pinned at ladder index ``i`` + the same deterministic surges).
    """
    chaos = mode == "chaos"
    closed_loop = chaos or mode == "controller"
    if not closed_loop:
        if not mode.startswith("static-"):
            raise ValueError(f"unknown mode {mode!r}")
        static_relax = int(mode.split("-", 1)[1])
    else:
        static_relax = 0

    trace = Trace(enabled=True)
    metrics = MetricsRegistry()
    span = WARMUP + duration + DRAIN_GRACE / 2
    scenario = build_operation_mix_scenario(
        seed=seed,
        duration=span,
        controller_config=ADAPTIVE_CONFIG if closed_loop else None,
        knob_config=ADAPTIVE_CONFIG,
        static_relax=static_relax,
        # A wide secondary pool makes the lazy-update fan-out a real
        # fraction of the message budget — the replication cost the
        # paper's T_L knob trades against consistency.
        num_secondaries=6,
        metrics=metrics,
        trace=trace,
    )
    sim, service = scenario.sim, scenario.service
    rate = scenario.rate_controller

    engine = None
    if chaos:
        engine = chaos_engine(
            scenario.testbed,
            storm_chaos_config(duration, STORM_FACTOR),
            rate_controller=rate,
        )
    else:
        # Deterministic phased load: calm -> surge -> calm -> surge.
        for start, end, factor in SURGES:
            sim.schedule(
                WARMUP + start * duration,
                lambda f=factor: rate.begin_storm(f),
            )
            sim.schedule(WARMUP + end * duration, rate.end_storm)

    run_phases(scenario.testbed, engine, WARMUP, duration, DRAIN_GRACE)
    scenario.recorder.flush()

    timeline = scenario.recorder.timeline()
    signals = scenario.engine.signals(timeline)
    snapshot = metrics.snapshot()
    reads_judged = counter_sum(snapshot, "client_reads_judged")
    replicas_selected = counter_sum(snapshot, "client_replicas_selected")
    lazy_messages = counter_sum(snapshot, "replica_lazy_updates_sent") * len(
        service.secondaries
    )
    cost = (
        (replicas_selected + lazy_messages) / reads_judged
        if reads_judged
        else 0.0
    )

    controller = scenario.controller
    decisions = [d.to_dict() for d in controller.decisions] if controller else []
    storms = (
        sum(1 for e in engine.events if e.kind == "load-storm")
        if engine is not None
        else len(SURGES)
    )

    violations: list[str] = []
    if controller is not None:
        violations.extend(
            audit_decisions(decisions, ADAPTIVE_CONFIG, scenario.classes)
        )
    if engine is not None and storms == 0:
        violations.append("storm: no load storm was injected")

    result = AdaptiveCellResult(
        seed=seed,
        mode=mode,
        duration=duration,
        violations=violations,
        storms=storms,
        satisfaction=satisfaction_from_signals(signals),
        compliance={
            name: s["compliance"]
            for name, s in signals.items()
            if name.startswith("timeliness-")
        },
        cost_per_read=cost,
        reads_judged=reads_judged,
        replicas_selected=replicas_selected,
        lazy_messages=lazy_messages,
        rollbacks=controller.rollbacks.value if controller else 0,
        relaxes=controller.relaxes.value if controller else 0,
        final_relax_index=controller.relax_index if controller else static_relax,
        decisions=decisions,
        events=(
            engine_events(engine)
            if engine is not None
            else [f"surge {s}-{e} x{f}" for s, e, f in SURGES]
        ),
        metrics=snapshot,
        timeline=timeline.to_dict(),
    )
    dump_violation_trace(
        "adaptive", result, trace, trace_dir, tag="DECISION", lines=decisions
    )
    return result


def audit_decisions(
    decisions: list[dict], config: ControllerConfig, classes: dict
) -> list[str]:
    """Check the controller invariants on one cell's decision log."""
    violations: list[str] = []
    eps = 1e-9
    relax_epochs: list[int] = []
    rollback_epochs: list[int] = []
    prev_index = 0
    for d in decisions:
        epoch = d["epoch"]
        # Bounds.
        if not (T_L_MIN - eps <= d["t_l"] <= config.t_l_max + eps):
            violations.append(
                f"bounds: epoch {epoch} T_L {d['t_l']} outside "
                f"[{T_L_MIN}, {config.t_l_max}]"
            )
        if not (0 <= d["relax_index"] <= config.max_relax_steps):
            violations.append(
                f"bounds: epoch {epoch} relax index {d['relax_index']} "
                f"outside [0, {config.max_relax_steps}]"
            )
        for name, knob in d["knobs"].items():
            cls = classes.get(name)
            if cls is None:
                continue
            bounds = cls.bounds
            if knob["staleness_threshold"] > bounds.staleness_ceiling + eps:
                violations.append(
                    f"bounds: epoch {epoch} class {name} staleness "
                    f"{knob['staleness_threshold']} above ceiling "
                    f"{bounds.staleness_ceiling}"
                )
            floor = min(bounds.probability_floor, cls.qos.min_probability)
            if knob["min_probability"] < floor - eps:
                violations.append(
                    f"bounds: epoch {epoch} class {name} probability "
                    f"{knob['min_probability']} below floor {floor}"
                )
        if d["state"] not in STATE_LEVELS:
            violations.append(f"state: epoch {epoch} unknown {d['state']!r}")
        # Rollback coupling: a regression observed while relaxed must
        # roll back in the same epoch (safety is never rate-limited).
        if d["regression"] and prev_index > 0 and not d["rollback"]:
            violations.append(
                f"rollback: epoch {epoch} regressed at index {prev_index} "
                "without rolling back"
            )
        if d["rollback"] and d["relax_index"] >= prev_index:
            violations.append(
                f"rollback: epoch {epoch} claimed a rollback but index "
                f"went {prev_index} -> {d['relax_index']}"
            )
        if any(a.startswith("relax:") for a in d["actions"]):
            relax_epochs.append(epoch)
        if d["rollback"]:
            rollback_epochs.append(epoch)
        prev_index = d["relax_index"]
    # Anti-flap: relax steps rate-limited, and never inside the
    # post-rollback hold window.
    for a, b in zip(relax_epochs, relax_epochs[1:]):
        if b - a < COOLDOWN_EPOCHS:
            violations.append(
                f"anti-flap: relaxes at epochs {a} and {b} closer than "
                f"cooldown {COOLDOWN_EPOCHS}"
            )
    for r in rollback_epochs:
        for e in relax_epochs:
            if 0 < e - r < config.hold_epochs:
                violations.append(
                    f"anti-flap: relax at epoch {e} inside the "
                    f"{config.hold_epochs}-epoch hold after rollback at {r}"
                )
    return violations


# ---------------------------------------------------------------------------
# Bit-identity gate
# ---------------------------------------------------------------------------
def check_bit_identity(seed: int = 0, duration: float = 4.0) -> list[str]:
    """A ``dry_run`` controller must not perturb the workload at all.

    Runs the same seeded scenario twice — once with no controller, once
    with a dry-run controller (observe/decide/record, never actuate) —
    and compares every reader outcome and every non-controller metric
    series byte for byte.
    """
    outcomes = []
    snapshots = []
    for cfg in (None, ControllerConfig(dry_run=True)):
        scenario = build_operation_mix_scenario(
            seed=seed, duration=duration, controller_config=cfg
        )
        scenario.sim.run(until=duration + DRAIN_GRACE)
        scenario.recorder.flush()
        # Everything an outcome reports about the read must match exactly.
        outcomes.append(
            {
                name: [
                    (
                        o.value,
                        o.response_time,
                        o.timing_failure,
                        o.replicas_selected,
                        o.deferred,
                        o.gsn,
                    )
                    for o in reader.outcomes
                ]
                for name, reader in scenario.readers.items()
            }
        )
        # controller_* series exist only in the dry-run build, and the
        # selection-overhead histogram measures host wall-clock time
        # (perf_counter), which no two runs ever reproduce.
        snapshots.append(
            {
                series: entry
                for series, entry in scenario.testbed.metrics.snapshot().items()
                if not series.startswith("controller_")
                and not series.startswith(WALL_CLOCK_SERIES)
            }
        )
    violations: list[str] = []
    if outcomes[0] != outcomes[1]:
        for name in outcomes[0]:
            if outcomes[0][name] != outcomes[1].get(name):
                violations.append(
                    f"bit-identity: reader {name!r} outcomes diverge under a "
                    "dry-run controller"
                )
    if snapshots[0] != snapshots[1]:
        diverged = sorted(
            set(snapshots[0]) ^ set(snapshots[1])
            | {
                s
                for s in set(snapshots[0]) & set(snapshots[1])
                if snapshots[0][s] != snapshots[1][s]
            }
        )
        violations.append(
            f"bit-identity: {len(diverged)} metric series diverge under a "
            f"dry-run controller (first: {diverged[:3]})"
        )
    return violations


# ---------------------------------------------------------------------------
# Suite-wide checks, campaign declaration + CLI
# ---------------------------------------------------------------------------
def acceptance(results: list[AdaptiveCellResult]) -> list[str]:
    """The suite-wide checks that are not a paired claim: the chaos
    cells' guardrails actually exercised, and the dry-run controller
    invisible (on the suite's first seed)."""
    violations = []
    chaos_cells = [r for r in results if r.mode == "chaos"]
    if chaos_cells and not any(r.rollbacks > 0 for r in chaos_cells):
        violations.append(
            "guardrails: no chaos cell ever rolled back — the audit is vacuous"
        )
    if results:
        violations.extend(check_bit_identity(seed=results[0].seed))
    return violations


def _decision_logs(results: list[AdaptiveCellResult]) -> list[dict]:
    return [
        {
            "event": "controller",
            "seed": r.seed,
            "mode": r.mode,
            "decisions": r.decisions,
        }
        for r in results
        if r.decisions
    ]


CAMPAIGN = Campaign(
    name="adaptive",
    doc=__doc__,
    run_cell=run_adaptive_cell,
    modes=MODES,
    default=(40, 12.0),
    quick=(20, 12.0),
    title="adaptive campaign (controller vs. static grid)",
    columns=(
        ("storms", lambda r: r.storms),
        ("satisfaction", lambda r: f"{r.satisfaction:.4f}"),
        ("cost/read", lambda r: f"{r.cost_per_read:.2f}"),
        ("score", lambda r: f"{r.score:.4f}"),
        ("relax/rollbk", lambda r: f"{r.relaxes}/{r.rollbacks}"),
        ("idx", lambda r: r.final_relax_index),
    ),
    cell_fields=(
        "storms", "satisfaction", "compliance", "cost_per_read", "score",
        "reads_judged", "rollbacks", "relaxes", "final_relax_index",
        "violations",
    ),
    telemetry_title="closed-loop cell telemetry",
    telemetry_modes=("controller", "chaos"),
    claims=tuple(
        Claim("controller", mode, "score", better="higher")
        for mode in SCORED_MODES[1:]
    ),
    acceptance=acceptance,
    extra_records=_decision_logs,
)


def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> int:
    return campaign_main(CAMPAIGN, argv, prog)


if __name__ == "__main__":
    sys.exit(main())
