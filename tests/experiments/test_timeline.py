"""End-to-end timeline plumbing through the figure-4 harness.

Covers the observability acceptance criteria: recorder-off purity (the
telemetry path must not perturb results), parallel-runner determinism
(modulo the one wall-clock series), the merged-timeline artifact, and
per-read staleness-attribution additivity.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.client import WALL_CLOCK_SERIES
from repro.experiments.figure4 import run_figure4, write_metrics_artifact
from repro.experiments.harness import run_figure4_cell
from repro.obs.timeseries import Timeline
from repro.sim.tracing import Trace
from repro.workloads.scenarios import build_paper_scenario

QUICK = dict(
    deadline=0.200,
    min_probability=0.5,
    lazy_update_interval=4.0,
    total_requests=100,
    seed=7,
)


def _strip_wallclock(timeline: Timeline) -> Timeline:
    series = {
        name: entry
        for name, entry in timeline.series.items()
        if not name.startswith(WALL_CLOCK_SERIES)
    }
    return Timeline(
        timeline.interval, timeline.start, timeline.length, series
    )


@pytest.fixture(scope="module")
def quick_cell_with_timeline():
    return run_figure4_cell(timeseries=5.0, **QUICK)


def test_recorder_off_leaves_results_bit_identical(quick_cell_with_timeline):
    """The recorder must be a pure observer: same cell with it disabled."""
    plain = run_figure4_cell(**QUICK)
    assert plain.timeline is None and plain.metrics is None
    for field in dataclasses.fields(plain):
        if field.name in ("metrics", "calibration", "timeline"):
            continue
        assert getattr(plain, field.name) == getattr(
            quick_cell_with_timeline, field.name
        ), field.name


def test_timeline_totals_match_cell_summary(quick_cell_with_timeline):
    cell = quick_cell_with_timeline
    timeline = Timeline.from_dict(cell.timeline)
    judged = sum(
        sum(entry["deltas"])
        for name, entry in timeline.series.items()
        if name.startswith("client_reads_judged")
    )
    # Both clients judge reads; client 2 alone contributes ``cell.reads``.
    assert (
        sum(
            timeline.series['client_reads_judged{client="client-2"}'][
                "deltas"
            ]
        )
        == cell.reads
    )
    assert judged >= cell.reads


@pytest.mark.slow
def test_parallel_runner_merges_identical_timelines(tmp_path):
    kwargs = dict(
        deadlines_ms=[80, 200],
        probabilities=[0.5],
        lazy_intervals=[4.0],
        total_requests=60,
        seed=11,
        timeseries=5.0,
    )
    serial = run_figure4(jobs=1, **kwargs)
    parallel = run_figure4(jobs=2, **kwargs)
    assert set(serial.cells) == set(parallel.cells)
    for key in serial.cells:
        a = _strip_wallclock(Timeline.from_dict(serial.cells[key].timeline))
        b = _strip_wallclock(
            Timeline.from_dict(parallel.cells[key].timeline)
        )
        assert a == b, key

    merged = Timeline.merge_payloads(
        c.timeline for c in serial.cells.values()
    )
    assert merged is not None
    assert _strip_wallclock(merged) == _strip_wallclock(
        Timeline.merge(
            *(
                Timeline.from_dict(c.timeline)
                for c in serial.cells.values()
            )
        )
    )

    out = tmp_path / "metrics.jsonl"
    write_metrics_artifact(str(out), serial)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    events = [r["event"] for r in records]
    assert "timeline" in events
    payload = next(r for r in records if r["event"] == "timeline")
    assert payload["kind"] == "merged"
    restored = Timeline.from_dict(payload["timeline"])
    assert _strip_wallclock(restored) == _strip_wallclock(merged)


def test_attribution_components_sum_to_observed_staleness():
    """Per-read decomposition additivity on a cell that actually defers."""
    trace = Trace()
    scenario = build_paper_scenario(
        deadline=0.080,
        min_probability=0.5,
        lazy_update_interval=4.0,
        total_requests=80,
        seed=3,
        trace=trace,
    )
    scenario.run()
    records = trace.filter(category="replica.attribution")
    assert records, "deferring cell produced no attribution records"
    positive = 0
    for record in records:
        detail = record.detail
        reconstructed = (
            detail["lazy_publisher"] + detail["queue"] + detail["network"]
        )
        assert abs(detail["observed"] - reconstructed) < 1e-9
        if detail["observed"] > 0:
            positive += 1
    assert positive > 0
