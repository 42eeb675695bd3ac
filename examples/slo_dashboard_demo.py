"""SLOs over a live timeline: burn alerts that lead the degradation ladder.

Runs the same seeded overload storm twice — once for real, once with the
storm bursts suppressed — records a 100 ms-tick timeline of every metric,
and evaluates a timeliness SLO on the bronze ("bulk") traffic class:

* in the **storm**, the fast-burn window pages seconds before the
  degradation ladder reaches CRITICAL (telemetry leads the mechanism);
* in the **calm** run, the same SLO stays green and no alert fires;
* a deferring §6 cell (tight deadline, loose probability) then shows the
  staleness **attribution** table: observed waits split into
  lazy-publisher lag vs. commit-queue wait vs. network delay.

Run: ``python examples/slo_dashboard_demo.py``
"""

from repro.core.overload import CRITICAL
from repro.experiments.dashboard import render_attribution, render_slo_table
from repro.experiments.harness import run_figure4_cell
from repro.experiments.overload import run_overload_cell
from repro.obs.slo import SloEngine, SloSpec
from repro.obs.timeseries import Timeline

SEED = 202
DURATION = 8.0
# A cautious ladder (1 s step cooldown): automatic degradation is the
# *second* line of defense, so the page has something to lead.
STEP_COOLDOWN = 1.0

SLO = SloSpec(
    name="timeliness:bulk",
    objective=0.99,  # 1% error budget on deadline hits
    client="bulk",
    fast_window=1.0,  # paging window (seconds)
    slow_window=6.0,  # ticketing window
)


def first_critical_time(timeline: Timeline) -> float | None:
    series = 'client_degradation_level{client="bulk"}'
    if series not in timeline.series:
        return None
    times = timeline.times()
    for tick, level in enumerate(timeline.values(series)):
        if level is not None and level >= CRITICAL:
            return times[tick]
    return None


def main() -> None:
    engine = SloEngine([SLO])
    for label, calm in (("storm", False), ("calm", True)):
        cell = run_overload_cell(
            SEED, "shed", duration=DURATION, calm=calm,
            step_cooldown=STEP_COOLDOWN,
        )
        timeline = Timeline.from_dict(cell.timeline)
        reports = engine.evaluate(timeline)
        report = reports[SLO.name]

        print(f"=== {label} (seed {SEED}, {DURATION:g}s of load) ===")
        print(render_slo_table(reports))
        page = report.first_alert("page")
        critical = first_critical_time(timeline)
        if page is not None:
            lead = (
                f"{critical - page.time:.1f}s before CRITICAL"
                if critical is not None
                else "CRITICAL never reached"
            )
            print(
                f"fast-burn page at t={page.time:.1f}s "
                f"(burn {page.burn:.0f}x budget) — {lead}"
            )
        else:
            print("no burn alert fired")
        print()

    # Overloaded reads are shed, not deferred, so the storm's staleness
    # waits are all zero — attribution needs a cell that actually defers:
    # a tight deadline with a loose probability target and a slow lazy
    # publisher makes Algorithm 1 wait on secondaries.
    print("=== staleness attribution (deferring §6 cell) ===")
    cell = run_figure4_cell(
        deadline=0.080,
        min_probability=0.5,
        lazy_update_interval=4.0,
        total_requests=200,
        seed=3,
        timeseries=5.0,
    )
    print(render_attribution(Timeline.from_dict(cell.timeline)))


if __name__ == "__main__":
    main()
