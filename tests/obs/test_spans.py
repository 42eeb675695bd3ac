"""Request-span tracing: emission, tree reconstruction, stitching rules."""

from repro.obs.spans import SPAN_CATEGORY, emit_span, span_root
from repro.sim.tracing import NULL_TRACE, Trace

from .span_trees import build_span_trees, request_id_of


def test_span_ids():
    assert span_root(7) == "req-7"
    assert request_id_of("req-7/d0") == 7
    assert request_id_of("req-7") == 7
    assert request_id_of("other") is None
    assert request_id_of("req-x/d0") is None


def test_emit_span_rides_the_trace():
    trace = Trace()
    emit_span(trace, 1.0, "c", "req-1", "read", deadline=0.2)
    record = trace.records[0]
    assert record.category == SPAN_CATEGORY
    assert record.detail["span"] == "req-1"
    assert record.detail["parent"] is None
    assert record.detail["deadline"] == 0.2
    emit_span(NULL_TRACE, 1.0, "c", "req-1", "read")  # no-op, no error


def test_explicit_parent_stitching():
    trace = Trace()
    emit_span(trace, 1.0, "c", "req-1", "read")
    emit_span(trace, 1.1, "c", "req-1/d0", "dispatch", parent_id="req-1",
              target="r1", reason="select")
    emit_span(trace, 1.5, "c", "req-1/j", "judge", parent_id="req-1",
              timely=True)
    trees = build_span_trees(trace)
    root = trees[1]
    assert {c.name for c in root.children} == {"dispatch", "judge"}
    assert len(root.find("judge")) == 1


def test_replica_spans_stitch_to_matching_dispatch():
    trace = Trace()
    emit_span(trace, 1.0, "c", "req-1", "read")
    emit_span(trace, 1.0, "c", "req-1/d0", "dispatch", parent_id="req-1",
              target="r1", reason="select")
    emit_span(trace, 1.0, "c", "req-1/d1", "dispatch", parent_id="req-1",
              target="r2", reason="select")
    # Replica-side serve spans carry no parent pointer.
    emit_span(trace, 1.2, "r2", "req-1/s/r2", "serve", ts=0.1)
    trees = build_span_trees(trace)
    dispatches = trees[1].find("dispatch")
    to_r2 = next(d for d in dispatches if d.annotations["target"] == "r2")
    assert [c.name for c in to_r2.children] == ["serve"]


def test_retry_redispatch_claims_later_serve():
    """A serve after a retry stitches under the retry's dispatch edge, not
    the original one — latest matching dispatch wins."""
    trace = Trace()
    emit_span(trace, 1.0, "c", "req-1", "read")
    emit_span(trace, 1.0, "c", "req-1/d0", "dispatch", parent_id="req-1",
              target="r1", reason="select")
    emit_span(trace, 2.0, "c", "req-1/d1", "dispatch", parent_id="req-1",
              target="r1", reason="timeout")
    emit_span(trace, 2.5, "r1", "req-1/s/r1", "serve", ts=0.1)
    trees = build_span_trees(trace)
    dispatches = trees[1].find("dispatch")
    retry = next(d for d in dispatches if d.annotations["reason"] == "timeout")
    original = next(d for d in dispatches if d.annotations["reason"] == "select")
    assert [c.name for c in retry.children] == ["serve"]
    assert original.children == []


def test_orphan_spans_fall_back_to_root():
    trace = Trace()
    emit_span(trace, 1.0, "c", "req-1", "read")
    # A sequencer span with no parent and no matching dispatch.
    emit_span(trace, 1.1, "seq", "req-1/q", "sequence", gsn=4)
    trees = build_span_trees(trace)
    assert [c.name for c in trees[1].children] == ["sequence"]


def test_requests_without_roots_are_skipped():
    trace = Trace()
    emit_span(trace, 1.0, "r1", "req-9/s/r1", "serve")
    assert build_span_trees(trace) == {}


def test_walk_and_to_dict():
    trace = Trace()
    emit_span(trace, 1.0, "c", "req-1", "read")
    emit_span(trace, 1.5, "c", "req-1/j", "judge", parent_id="req-1")
    root = build_span_trees(trace)[1]
    assert [root.name] + [s.name for s in root.children] == ["read", "judge"]
    payload = root.to_dict()
    assert payload["span"] == "req-1"
    assert payload["children"][0]["name"] == "judge"
