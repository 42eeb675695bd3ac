"""Parallel-runner telemetry equality: --jobs N must not change totals.

Each cell's registry snapshot and timeline are produced in whatever
worker process ran the cell and come home as plain pickled dicts;
MetricsRegistry.merge, CalibrationTracker.merge and Timeline.merge are
commutative folds, so cells and merged totals must be identical whatever
the job count or scheduling order.
"""

import dataclasses

from repro.core.client import WALL_CLOCK_SERIES
from repro.experiments.figure4 import merged_telemetry, run_figure4
from repro.obs.timeseries import Timeline

GRID = dict(
    deadlines_ms=(120, 200),
    probabilities=(0.9,),
    lazy_intervals=(2.0,),
    total_requests=60,
    seed=3,
    collect_metrics=True,
    timeseries=5.0,
)


def drop_wall_clock(snapshot):
    """The selection-overhead histogram times *wall-clock* CPU work (like
    the Figure 3 measurement), so it is legitimately nondeterministic; all
    simulation-derived series must match exactly."""
    return {
        series: entry
        for series, entry in snapshot.items()
        if not series.startswith(WALL_CLOCK_SERIES)
    }


def sim_derived_timeline(payload):
    return dict(payload, series=drop_wall_clock(payload["series"]))


def sim_derived(cell):
    """The cell minus the wall-clock series inside its telemetry payloads."""
    return dataclasses.replace(
        cell,
        metrics=drop_wall_clock(cell.metrics),
        timeline=sim_derived_timeline(cell.timeline),
    )


def _merged_timeline(result):
    return Timeline.merge_payloads(c.timeline for c in result.cells.values())


def test_jobs4_metrics_equal_jobs1():
    serial = run_figure4(jobs=1, **GRID)
    parallel = run_figure4(jobs=4, **GRID)

    # Whole cells — summary fields, snapshot, calibration, timeline.
    assert {k: sim_derived(c) for k, c in serial.cells.items()} == {
        k: sim_derived(c) for k, c in parallel.cells.items()
    }
    timeline_1 = _merged_timeline(serial).to_dict()
    assert timeline_1["length"] > 0
    assert sim_derived_timeline(timeline_1) == sim_derived_timeline(
        _merged_timeline(parallel).to_dict()
    )
    metrics_1, calibration_1 = merged_telemetry(serial)
    metrics_4, calibration_4 = merged_telemetry(parallel)
    assert drop_wall_clock(metrics_1) == drop_wall_clock(metrics_4)
    assert calibration_1 == calibration_4
    # Sanity: the telemetry is real, not two empty dicts agreeing.
    reads = [
        entry["value"]
        for series, entry in metrics_1.items()
        if series.startswith("client_reads_issued")
    ]
    assert sum(reads) > 0
    assert calibration_1 is not None
    assert sum(calibration_1["strategies"]["state-based"]["count"]) > 0


def test_every_cell_carries_its_own_snapshot():
    result = run_figure4(jobs=2, **GRID)
    for cell in result.cells.values():
        assert cell.metrics is not None
        assert cell.calibration is not None
        assert cell.timeline is not None
        assert any(
            series.startswith("client_reads_issued")
            for series in cell.metrics
        )


def test_metrics_off_by_default():
    result = run_figure4(
        jobs=1,
        deadlines_ms=(200,),
        probabilities=(0.9,),
        lazy_intervals=(2.0,),
        total_requests=20,
        seed=3,
    )
    cell = next(iter(result.cells.values()))
    assert cell.metrics is None
    assert cell.calibration is None
