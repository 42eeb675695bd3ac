"""Timeline recording and merge algebra."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import Timeline, TimeseriesRecorder
from repro.sim.kernel import Simulator


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------
def test_recorder_deltas_counters_per_tick():
    sim = Simulator()
    registry = MetricsRegistry()
    reads = registry.counter("reads_total", client="a")
    recorder = TimeseriesRecorder(sim, registry, interval=1.0).start()
    sim.schedule(0.2, lambda: reads.inc(3))
    sim.schedule(1.5, lambda: reads.inc(5))
    sim.run(until=2.5)
    timeline = recorder.timeline()
    assert timeline.deltas('reads_total{client="a"}') == [3, 5]
    assert timeline.rate('reads_total{client="a"}') == [3.0, 5.0]
    assert timeline.times() == [1.0, 2.0]


def test_recorder_baseline_excludes_prestart_counts():
    sim = Simulator()
    registry = MetricsRegistry()
    counter = registry.counter("setup_total")
    counter.inc(7)  # happens before the recorder starts
    recorder = TimeseriesRecorder(sim, registry, interval=1.0).start()
    sim.schedule(0.5, counter.inc)
    sim.run(until=1.5)
    assert recorder.timeline().deltas("setup_total") == [1]


def test_recorder_gauges_sample_last_value():
    sim = Simulator()
    registry = MetricsRegistry()
    depth = registry.gauge("queue_depth")
    recorder = TimeseriesRecorder(sim, registry, interval=1.0).start()
    sim.schedule(0.1, lambda: depth.set(4))
    sim.schedule(0.9, lambda: depth.set(2))
    sim.schedule(1.3, lambda: depth.set(9))
    sim.run(until=2.5)
    assert recorder.timeline().values("queue_depth") == [2.0, 9.0]


def test_recorder_histograms_record_windowed_rows():
    sim = Simulator()
    registry = MetricsRegistry()
    hist = registry.histogram("wait_seconds", boundaries=(0.1, 1.0))
    recorder = TimeseriesRecorder(sim, registry, interval=1.0).start()
    sim.schedule(0.2, lambda: hist.observe(0.05))
    sim.schedule(0.3, lambda: hist.observe(0.5))
    sim.schedule(1.4, lambda: hist.observe(5.0))
    sim.run(until=2.5)
    entry = recorder.timeline().series["wait_seconds"]
    assert entry["counts"] == [[1, 1, 0], [0, 0, 1]]
    assert entry["totals"] == [2, 1]
    assert entry["sums"] == pytest.approx([0.55, 5.0])
    # Windowed quantiles: tick 0 observations are all <= 1.0.
    assert recorder.timeline().quantiles("wait_seconds", 0.99) == [1.0, 1.0]


def test_recorder_backfills_series_created_mid_run():
    sim = Simulator()
    registry = MetricsRegistry()
    registry.counter("early_total")
    recorder = TimeseriesRecorder(sim, registry, interval=1.0).start()
    sim.schedule(2.5, lambda: registry.counter("late_total").inc(4))
    sim.run(until=3.5)
    timeline = recorder.timeline()
    assert timeline.deltas("early_total") == [0, 0, 0]
    assert timeline.deltas("late_total") == [0, 0, 4]


def test_recorder_flush_captures_partial_tail_once():
    sim = Simulator()
    registry = MetricsRegistry()
    counter = registry.counter("ops_total")
    recorder = TimeseriesRecorder(sim, registry, interval=1.0).start()
    sim.schedule(1.4, lambda: counter.inc(2))
    sim.run(until=1.6)  # the tick at t=2.0 never fires
    assert recorder.timeline().deltas("ops_total") == [0]
    recorder.flush()
    assert recorder.timeline().deltas("ops_total") == [0, 2]
    recorder.flush()  # nothing changed: no extra tick
    assert recorder.timeline().length == 2


def test_recorder_ring_evicts_oldest_and_advances_start():
    sim = Simulator()
    registry = MetricsRegistry()
    counter = registry.counter("ops_total")
    recorder = TimeseriesRecorder(sim, registry, interval=1.0, capacity=3)
    recorder.start()

    def pulse(n):
        return lambda: counter.inc(n)

    for i in range(6):
        sim.schedule(i + 0.5, pulse(i + 1))
    sim.run(until=6.5)
    timeline = recorder.timeline()
    assert timeline.length == 3
    assert timeline.start == 3
    assert timeline.deltas("ops_total") == [4, 5, 6]
    assert timeline.times() == [4.0, 5.0, 6.0]


def test_recorder_schedules_nothing_before_start():
    sim = Simulator()
    TimeseriesRecorder(sim, MetricsRegistry(), interval=1.0)
    assert sim.heap_size() == 0


def test_recorder_rejects_bad_parameters():
    sim = Simulator()
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        TimeseriesRecorder(sim, registry, interval=0.0)
    with pytest.raises(ValueError):
        TimeseriesRecorder(sim, registry, capacity=0)
    with pytest.raises(ValueError):
        Timeline(interval=-1.0)


# ---------------------------------------------------------------------------
# Timeline views and merge algebra
# ---------------------------------------------------------------------------
def _counter_timeline(start, deltas, name="ops_total", interval=1.0):
    return Timeline(
        interval,
        start=start,
        length=len(deltas),
        series={name: {"type": "counter", "deltas": list(deltas)}},
    )


def test_entry_accessors_enforce_types():
    t = _counter_timeline(0, [1, 2])
    with pytest.raises(TypeError):
        t.values("ops_total")
    with pytest.raises(KeyError):
        t.deltas("missing_total")


def test_merge_aligns_on_absolute_ticks():
    a = _counter_timeline(0, [1, 2])
    b = _counter_timeline(1, [10, 20])
    merged = Timeline.merge(a, b)
    assert merged.start == 0
    assert merged.length == 3
    assert merged.deltas("ops_total") == [1, 12, 20]


def test_merge_is_commutative_and_associative():
    a = _counter_timeline(0, [1, 2])
    b = _counter_timeline(2, [5])
    c = _counter_timeline(1, [7, 7, 7])
    assert Timeline.merge(a, b) == Timeline.merge(b, a)
    assert Timeline.merge(Timeline.merge(a, b), c) == Timeline.merge(
        a, Timeline.merge(b, c)
    )


def test_merge_gauges_take_max_of_present_samples():
    a = Timeline(
        1.0, 0, 2,
        {"g": {"type": "gauge", "values": [1.0, None]}},
    )
    b = Timeline(
        1.0, 0, 2,
        {"g": {"type": "gauge", "values": [3.0, 2.0]}},
    )
    merged = Timeline.merge(a, b)
    assert merged.values("g") == [3.0, 2.0]


def test_merge_histograms_add_rows_sums_totals():
    def h(start, row, s, n):
        return Timeline(
            1.0, start, 1,
            {
                "h": {
                    "type": "histogram",
                    "boundaries": [0.1],
                    "counts": [list(row)],
                    "sums": [s],
                    "totals": [n],
                }
            },
        )

    merged = Timeline.merge(h(0, [1, 0], 0.05, 1), h(0, [0, 2], 4.0, 2))
    entry = merged.series["h"]
    assert entry["counts"] == [[1, 2]]
    assert entry["sums"] == [4.05]
    assert entry["totals"] == [3]


def test_merge_rejects_interval_and_type_conflicts():
    with pytest.raises(ValueError):
        Timeline.merge(_counter_timeline(0, [1]), _counter_timeline(0, [1], interval=2.0))
    gauge = Timeline(1.0, 0, 1, {"ops_total": {"type": "gauge", "values": [1.0]}})
    with pytest.raises(TypeError):
        Timeline.merge(_counter_timeline(0, [1]), gauge)


def test_merge_of_nothing_is_empty():
    assert Timeline.merge().length == 0
    assert Timeline.merge(None, None).length == 0
    empty = Timeline(0.5)
    assert Timeline.merge(empty, None).interval == 0.5


def test_to_dict_round_trip_and_equality():
    t = _counter_timeline(3, [1, 2, 3])
    clone = Timeline.from_dict(t.to_dict())
    assert clone == t
    clone.series["ops_total"]["deltas"][0] = 99
    assert clone != t  # to_dict copied, not aliased


# ---------------------------------------------------------------------------
# Recorder output is internally consistent with the registry
# ---------------------------------------------------------------------------
def test_recorder_totals_reconcile_with_final_registry_state():
    sim = Simulator()
    registry = MetricsRegistry()
    counter = registry.counter("ops_total")
    hist = registry.histogram("wait_seconds", boundaries=(0.1, 1.0))

    def work():
        counter.inc(2)
        hist.observe(0.05 * (1 + sim.now))

    for i in range(20):
        sim.schedule(0.3 * (i + 1), work)
    recorder = TimeseriesRecorder(sim, registry, interval=1.0).start()
    sim.run(until=6.2)  # past the last work event, mid-tick
    recorder.flush()
    timeline = recorder.timeline()
    snap = registry.snapshot()
    assert sum(timeline.deltas("ops_total")) == snap["ops_total"]["value"]
    entry = timeline.series["wait_seconds"]
    assert sum(entry["totals"]) == snap["wait_seconds"]["count"]
    assert sum(entry["sums"]) == pytest.approx(snap["wait_seconds"]["sum"])
    columns = [
        sum(row[i] for row in entry["counts"])
        for i in range(len(snap["wait_seconds"]["counts"]))
    ]
    assert columns == snap["wait_seconds"]["counts"]
