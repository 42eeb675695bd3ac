"""The closed-loop SLA guardian: relax into calm, roll back at a surge.

DESIGN.md §16: a `ConsistencyController` reads the SLO engine's signals
every control epoch and walks one bounded knob ladder — lazy interval
T_L, per-class staleness thresholds, per-class timeliness demands —
relaxing consistency while the error budget is idle and rolling back
the moment a write surge starts burning it.  This demo runs the
login/cart/browse mix through calm → surge → calm and prints the
controller's decision trail.  Watch for four beats: an early probe to
index 1 is rolled back while telemetry is still settling (the budget
gate then defers re-exploration); the controller re-relaxes and
*confirms* index 1 once the calm phase proves it; the write surge
triggers a rollback within ~a second of onset (the staleness-guard SLO
is the leading indicator — deadline misses alone would arrive too
late); and after the surge drains it re-relaxes to the confirmed index
without having to re-earn exploration budget.

Run: ``python examples/adaptive_controller_demo.py``
"""

from repro.experiments.adaptive import ADAPTIVE_CONFIG
from repro.workloads.scenarios import build_operation_mix_scenario

WARMUP = 2.0
DURATION = 18.0
SURGE = (WARMUP + 10.0, WARMUP + 14.0, 20.0)  # (start, end, rate factor)


def main() -> None:
    scenario = build_operation_mix_scenario(
        seed=7,
        duration=WARMUP + DURATION,
        controller_config=ADAPTIVE_CONFIG,
        num_secondaries=6,
    )
    sim = scenario.sim
    rate = scenario.rate_controller

    start, end, factor = SURGE
    sim.schedule(start, lambda: rate.begin_storm(factor))
    sim.schedule(start, print,
                 f"[{start:5.1f}s] >>> write surge begins ({factor:g}x)")
    sim.schedule(end, rate.end_storm)
    sim.schedule(end, print, f"[{end:5.1f}s] >>> write surge ends")

    sim.run(until=WARMUP + DURATION + 2.0)
    scenario.recorder.flush()

    controller = scenario.controller
    assert controller is not None
    print()
    print("controller decision trail (changes only):")
    previous = None
    for d in controller.decisions:
        shape = (d.state, d.relax_index, bool(d.actions))
        if shape == previous and not d.actions:
            continue
        previous = shape
        acts = f"  {'; '.join(d.actions)}" if d.actions else ""
        print(
            f"[{d.time:5.1f}s] {d.state:<12} index={d.relax_index} "
            f"T_L={d.t_l:.2f}s{acts}"
        )

    print()
    print(
        f"{controller.relaxes.value} relaxes, {controller.rollbacks.value} rollbacks; "
        f"final T_L={controller.current_interval():.2f}s"
    )
    signals = scenario.engine.signals(scenario.recorder.timeline())
    for name, s in sorted(signals.items()):
        print(
            f"  {name:<22} compliance={s['compliance']:.4f} "
            f"objective={s['objective']:.2f} "
            f"budget_remaining={s['budget_remaining']:+.2f}"
        )


if __name__ == "__main__":
    main()
