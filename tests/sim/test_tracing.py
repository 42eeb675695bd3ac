"""Unit tests for the trace facility."""

from repro.sim.tracing import NULL_TRACE, Trace


def test_emit_records_fields():
    trace = Trace()
    trace.emit(1.5, "cat", "actor", key="value")
    record = trace.records[0]
    assert record.time == 1.5
    assert record.category == "cat"
    assert record.actor == "actor"
    assert record.detail == {"key": "value"}


def test_disabled_trace_records_nothing():
    trace = Trace(enabled=False)
    trace.emit(1.0, "cat", "actor")
    assert trace.records == []


def test_null_trace_is_disabled():
    assert NULL_TRACE.enabled is False


def test_filter_by_category_and_actor():
    trace = Trace()
    trace.emit(1.0, "a", "x")
    trace.emit(2.0, "b", "x")
    trace.emit(3.0, "a", "y")
    assert len(list(trace.filter(category="a"))) == 2
    assert len(list(trace.filter(actor="x"))) == 2
    assert len(list(trace.filter(category="a", actor="y"))) == 1


def test_count_matches_filter():
    trace = Trace()
    for i in range(5):
        trace.emit(float(i), "tick", "clock")
    assert trace.count("tick") == 5
    assert trace.count("tock") == 0


def test_last_returns_most_recent_match():
    trace = Trace()
    trace.emit(1.0, "x", "a", n=1)
    trace.emit(2.0, "x", "a", n=2)
    assert trace.last("x").detail["n"] == 2
    assert trace.last("missing") is None


def test_capacity_drops_overflow():
    trace = Trace(capacity=2)
    for i in range(5):
        trace.emit(float(i), "x", "a")
    assert len(trace.records) == 2
    assert trace.dropped == 3


def test_clear_resets():
    trace = Trace(capacity=1)
    trace.emit(1.0, "x", "a")
    trace.emit(2.0, "x", "a")
    trace.clear()
    assert trace.records == [] and trace.dropped == 0


def test_to_jsonl_round_trips():
    import json

    trace = Trace()
    trace.emit(1.0, "x", "a", n=1)
    trace.emit(2.0, "y", "b")
    lines = trace.to_jsonl().splitlines()
    assert len(lines) == 2
    first, second = (json.loads(line) for line in lines)
    assert first == {"time": 1.0, "category": "x", "actor": "a", "detail": {"n": 1}}
    assert second == {"time": 2.0, "category": "y", "actor": "b"}


def test_to_jsonl_stringifies_unserializable_detail():
    import enum
    import json

    class Kind(enum.Enum):
        READ = "read"

    trace = Trace()
    trace.emit(1.0, "x", "a", kind=Kind.READ)
    parsed = json.loads(trace.to_jsonl())
    assert parsed["detail"]["kind"] == str(Kind.READ)


def test_to_jsonl_empty_trace_is_empty_string():
    assert Trace().to_jsonl() == ""
