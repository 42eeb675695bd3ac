"""Metrics registry: instruments, snapshots, merge/diff, exporters."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import (
    metrics_event,
    prometheus_text,
    summarize_histogram,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    NULL_METRICS,
    bucket_quantile,
)
from repro.obs.timeseries import TimeseriesRecorder
from repro.sim.kernel import Simulator


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------
def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    counter = registry.counter("requests")
    counter.inc()
    counter.inc(3)
    assert counter.value == 4
    gauge = registry.gauge("depth")
    gauge.set(7.0)
    gauge.dec(2.0)
    assert gauge.value == 5.0


def test_instruments_memoized_per_label_set():
    registry = MetricsRegistry()
    a = registry.counter("reads", client="c1")
    b = registry.counter("reads", client="c1")
    c = registry.counter("reads", client="c2")
    assert a is b
    assert a is not c


def test_type_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("thing")
    with pytest.raises(TypeError):
        registry.gauge("thing")


def test_histogram_buckets_mean_and_quantile():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", boundaries=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.observe(value)
    assert hist.count == 5
    assert hist.counts == [1, 2, 1, 1]  # last is overflow
    assert hist.mean == pytest.approx(56.05 / 5)
    assert hist.quantile(0.5) == 1.0


_observations = st.lists(
    st.tuples(st.floats(0.0, 20.0), st.integers(0, 1000)), max_size=30
)


@given(pairs=_observations)
@settings(max_examples=100, deadline=None)
def test_observe_many_weighted_equals_the_repeated_values(pairs):
    """``observe_many(values, counts)`` is ``observe_many`` of every value
    repeated ``counts[i]`` times, which is ``observe`` per element."""
    values = np.array([v for v, _ in pairs], dtype=float)
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    registry = MetricsRegistry()
    weighted, repeated, scalar = (
        registry.histogram(name, boundaries=(0.1, 1.0, 10.0))
        for name in ("weighted", "repeated", "scalar")
    )
    weighted.observe_many(values, counts)
    repeated.observe_many(np.repeat(values, counts))
    for value in np.repeat(values, counts):
        scalar.observe(value)
    assert weighted.counts == repeated.counts == scalar.counts
    assert weighted.count == repeated.count == scalar.count == int(counts.sum())
    assert all(isinstance(c, int) for c in weighted.counts)
    assert weighted.sum == pytest.approx(repeated.sum, rel=1e-12)
    assert weighted.sum == pytest.approx(scalar.sum, rel=1e-12)


def test_default_time_buckets_are_log_scale():
    assert DEFAULT_TIME_BUCKETS[0] == pytest.approx(1e-4)
    ratios = [
        b / a for a, b in zip(DEFAULT_TIME_BUCKETS, DEFAULT_TIME_BUCKETS[1:])
    ]
    assert all(r == pytest.approx(2.0) for r in ratios)


def test_disabled_registry_hands_out_noops():
    registry = MetricsRegistry(enabled=False)
    counter = registry.counter("x")
    counter.inc(100)
    assert counter.value == 0
    hist = registry.histogram("y")
    hist.observe(1.0)
    hist.observe_many([1.0, 2.0])
    hist.observe_many([1.0, 2.0], [3, 4])
    assert hist.count == 0
    assert registry.snapshot() == {}
    assert NULL_METRICS.counter("z") is NULL_METRICS.histogram("z")


# ---------------------------------------------------------------------------
# Snapshot / merge / diff
# ---------------------------------------------------------------------------
def make_snapshot(reads, depth, observations):
    registry = MetricsRegistry()
    registry.counter("reads", client="c").inc(reads)
    registry.gauge("depth").set(depth)
    hist = registry.histogram("lat", boundaries=(1.0, 2.0))
    for value in observations:
        hist.observe(value)
    return registry.snapshot()


def test_snapshot_shape():
    snap = make_snapshot(3, 5.0, [0.5, 1.5])
    assert snap['reads{client="c"}'] == {"type": "counter", "value": 3}
    assert snap["depth"] == {"type": "gauge", "value": 5.0}
    assert snap["lat"]["counts"] == [1, 1, 0]
    assert snap["lat"]["count"] == 2


def test_merge_counters_add_gauges_max_histograms_add():
    a = make_snapshot(3, 5.0, [0.5])
    b = make_snapshot(4, 2.0, [1.5, 3.0])
    merged = MetricsRegistry.merge(a, b)
    assert merged['reads{client="c"}']["value"] == 7
    assert merged["depth"]["value"] == 5.0
    assert merged["lat"]["counts"] == [1, 1, 1]
    assert merged["lat"]["count"] == 3


def test_merge_is_commutative():
    a = make_snapshot(3, 5.0, [0.5])
    b = make_snapshot(4, 2.0, [1.5])
    c = make_snapshot(1, 9.0, [])
    assert MetricsRegistry.merge(a, b, c) == MetricsRegistry.merge(c, b, a)


def test_merge_does_not_mutate_inputs():
    a = make_snapshot(3, 5.0, [0.5])
    b = make_snapshot(4, 2.0, [1.5])
    before = json.loads(json.dumps(a))
    MetricsRegistry.merge(a, b)
    assert a == before


def test_merge_rejects_mismatched_boundaries():
    registry = MetricsRegistry()
    registry.histogram("lat", boundaries=(1.0,)).observe(0.5)
    other = MetricsRegistry()
    other.histogram("lat", boundaries=(2.0,)).observe(0.5)
    with pytest.raises(ValueError):
        MetricsRegistry.merge(registry.snapshot(), other.snapshot())


def test_diff_reports_deltas():
    old = make_snapshot(3, 5.0, [0.5])
    new = make_snapshot(10, 1.0, [0.5, 1.5])
    delta = MetricsRegistry.diff(new, old)
    assert delta['reads{client="c"}']["value"] == 7
    assert delta["depth"]["value"] == 1.0  # gauges report the new value
    assert delta["lat"]["count"] == 1


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
def test_prometheus_text_counters_and_types():
    text = prometheus_text(make_snapshot(3, 5.0, []))
    assert "# TYPE reads counter" in text
    assert 'reads{client="c"} 3' in text
    assert "# TYPE depth gauge" in text


def test_prometheus_histogram_expansion_is_cumulative():
    text = prometheus_text(make_snapshot(0, 0.0, [0.5, 1.5, 5.0]))
    lines = [l for l in text.splitlines() if l.startswith("lat")]
    assert 'lat_bucket{le="1"} 1' in lines
    assert 'lat_bucket{le="2"} 2' in lines
    assert 'lat_bucket{le="+Inf"} 3' in lines
    assert "lat_count 3" in lines


def test_prometheus_labelled_histogram_splices_le():
    registry = MetricsRegistry()
    registry.histogram("lat", boundaries=(1.0,), replica="r1").observe(0.5)
    text = prometheus_text(registry.snapshot())
    assert 'lat_bucket{replica="r1",le="1"} 1' in text


def test_metrics_event_and_write_jsonl(tmp_path):
    snap = make_snapshot(2, 0.0, [])
    record = metrics_event(snap, kind="cell", time=1.5, seed=7)
    path = write_jsonl(tmp_path / "sub" / "m.jsonl", [record])
    parsed = [json.loads(line) for line in path.read_text().splitlines()]
    assert parsed[0]["event"] == "cell"
    assert parsed[0]["time"] == 1.5
    assert parsed[0]["seed"] == 7
    assert parsed[0]["metrics"]['reads{client="c"}']["value"] == 2


def test_summarize_histogram():
    snap = make_snapshot(0, 0.0, [0.5, 0.5, 1.5, 5.0])
    summary = summarize_histogram(snap["lat"])
    assert summary["count"] == 4
    assert summary["mean"] == pytest.approx(7.5 / 4)
    assert summary["p50"] == 1.0
    assert summarize_histogram({"count": 0}) == {
        "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
    }


def test_one_bucket_quantile_behind_histogram_snapshot_and_timeline():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", boundaries=(0.1, 1.0, 10.0))
    recorder = TimeseriesRecorder(Simulator(), registry, interval=1.0).start()
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.observe(value)
    recorder.flush()
    summary = summarize_histogram(registry.snapshot()["lat"])
    (row,) = recorder.timeline().quantiles("lat", 0.99)
    for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
        assert summary[key] == hist.quantile(q)
    assert hist.quantile(0.5) == 1.0
    assert row == hist.quantile(0.99) == 10.0  # overflow reports the last boundary
    assert bucket_quantile((), [3], 3, 0.5) == float("inf")
    assert bucket_quantile((1.0,), [0, 0], 0, 0.5) == 0.0
