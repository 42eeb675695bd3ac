"""``repro metrics``: one instrumented §6 cell with a full telemetry report.

Runs a single seeded Figure 4 cell with the unified telemetry layer on —
shared :class:`~repro.obs.MetricsRegistry`, request-span tracing, and the
prediction-calibration tracker — and prints the combined report: counter
and histogram tables, recovery counters, and the per-strategy reliability
diagram (predicted ``P_c(d)`` vs. observed deadline-hit frequency with
Wilson CIs and the Brier score).

``--watch SECONDS`` prints counter deltas at sim-time intervals while the
cell runs (the same mechanism a chaos soak uses for periodic dumps);
``--metrics-out`` writes the JSONL artifact (merged totals plus the
cell's timeline, ``repro dash`` input); ``--prometheus`` writes the
text exposition format; ``--check`` exits non-zero unless the model-based
strategy is well calibrated (every populated bucket's observed frequency
inside its CI).

Run: ``python -m repro.experiments.telemetry`` or ``repro metrics``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.experiments.report import render_report, write_experiment_artifact
from repro.obs.calibration import CalibrationTracker
from repro.obs.export import metrics_event, prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeseriesRecorder
from repro.workloads.scenarios import build_paper_scenario


def run_instrumented_cell(
    deadline: float = 0.200,
    min_probability: float = 0.9,
    lazy_update_interval: float = 2.0,
    total_requests: int = 400,
    seed: int = 0,
    staleness_threshold: int = 2,
    watch: Optional[float] = None,
    watch_sink=print,
    timeseries: Optional[float] = None,
) -> tuple[MetricsRegistry, CalibrationTracker, object]:
    """Run one §6 cell with telemetry on; returns (metrics, calibration,
    scenario).  ``watch`` prints counter deltas every that-many *simulated*
    seconds through ``watch_sink``.  ``timeseries`` additionally attaches
    a :class:`TimeseriesRecorder` at that tick interval; the flushed
    recorder rides back as ``scenario.recorder``."""
    metrics = MetricsRegistry()
    calibration = CalibrationTracker()
    scenario = build_paper_scenario(
        deadline=deadline,
        min_probability=min_probability,
        lazy_update_interval=lazy_update_interval,
        staleness_threshold=staleness_threshold,
        total_requests=total_requests,
        seed=seed,
        metrics=metrics,
        calibration=calibration,
    )
    recorder = None
    if timeseries is not None and timeseries > 0:
        recorder = TimeseriesRecorder(
            scenario.sim, metrics, interval=timeseries
        ).start()
    if watch is not None and watch > 0:
        sim = scenario.sim
        last = {"snapshot": metrics.snapshot()}

        def dump() -> None:
            snapshot = metrics.snapshot()
            delta = MetricsRegistry.diff(snapshot, last["snapshot"])
            last["snapshot"] = snapshot
            changed = {
                series: entry["value"]
                for series, entry in delta.items()
                if entry["type"] == "counter" and entry["value"]
            }
            line = ", ".join(
                f"{series}: +{value}" for series, value in sorted(changed.items())
            )
            watch_sink(f"[t={sim.now:8.1f}s] {line or '(idle)'}")
            sim.schedule(watch, dump)

        sim.schedule(watch, dump)
    scenario.run()
    if recorder is not None:
        recorder.flush()
    scenario.recorder = recorder
    return metrics, calibration, scenario


def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog=prog, description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--deadline-ms", type=int, default=200)
    parser.add_argument("--pc", type=float, default=0.9, help="P_c target")
    parser.add_argument("--lui", type=float, default=2.0, help="lazy interval, s")
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--staleness", type=int, default=2, metavar="A")
    parser.add_argument(
        "--quick", action="store_true", help="150 requests (CI smoke)"
    )
    parser.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print counter deltas at this simulated-time interval",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the JSONL telemetry artifact (repro dash input)",
    )
    parser.add_argument(
        "--prometheus", metavar="PATH", help="write the text exposition format"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless the model-based strategy is well calibrated",
    )
    args = parser.parse_args(argv)

    requests = 150 if args.quick else args.requests
    # --watch gets the recorder at the watch cadence for free; otherwise
    # a 1 s tick when the artifact will carry the timeline.
    timeseries = None
    if args.watch is not None and args.watch > 0:
        timeseries = args.watch
    elif args.metrics_out:
        timeseries = 1.0
    metrics, calibration, scenario = run_instrumented_cell(
        deadline=args.deadline_ms / 1000.0,
        min_probability=args.pc,
        lazy_update_interval=args.lui,
        total_requests=requests,
        seed=args.seed,
        staleness_threshold=args.staleness,
        watch=args.watch,
        timeseries=timeseries,
    )
    recorder = scenario.recorder

    recovery = dict(scenario.client2.handler.recovery_stats())
    snapshot = metrics.snapshot()
    print(
        render_report(
            metrics=snapshot,
            recovery=recovery,
            calibration=calibration,
            title=(
                f"repro metrics — d={args.deadline_ms}ms P_c={args.pc} "
                f"LUI={args.lui:g}s requests={requests} seed={args.seed}"
            ),
        )
    )

    if recorder is not None and args.watch is not None:
        from repro.experiments.dashboard import render_timeline

        print()
        print(render_timeline(recorder.timeline()))

    if args.metrics_out:
        # --metrics-out always runs a recorder; the merged totals stay last.
        write_experiment_artifact(
            args.metrics_out,
            "metrics",
            [
                {
                    "event": "timeline",
                    "kind": "cell",
                    "timeline": recorder.timeline().to_dict(),
                },
                metrics_event(
                    snapshot, kind="merged", calibration=calibration.to_dict()
                ),
            ],
            seed=args.seed,
            deadline_ms=args.deadline_ms,
            pc=args.pc,
            lui=args.lui,
            requests=requests,
        )
        print(f"\ntelemetry written to {args.metrics_out}")
    if args.prometheus:
        from pathlib import Path

        text = prometheus_text(snapshot)
        if recorder is not None:
            from repro.obs.export import prometheus_timeseries_text

            text += prometheus_timeseries_text(recorder.timeline())
        Path(args.prometheus).write_text(text)
        print(f"prometheus text written to {args.prometheus}")

    if args.check:
        strategy = scenario.client2.handler.strategy.name
        if not calibration.well_calibrated(strategy):
            print(
                f"calibration check FAILED for strategy {strategy!r}",
                file=sys.stderr,
            )
            return 1
        print(f"\ncalibration check passed for strategy {strategy!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
