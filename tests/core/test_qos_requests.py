"""Unit tests for the QoS model, the request model and the value semantics
of every record built per operation."""

import dataclasses
import pickle

import pytest

from repro.core import requests
from repro.core.qos import OrderingGuarantee, QoSSpec
from repro.core.repository import LazyObservation
from repro.core.requests import (
    GsnAssign,
    GsnQuery,
    GsnSkip,
    LazyUpdate,
    OverloadReply,
    PerfBroadcast,
    PublisherSuspicion,
    ReadOnlyRegistry,
    ReadOutcome,
    Reply,
    Request,
    RequestKind,
    SequencerSyncReply,
    SequencerSyncRequest,
    StalenessInfo,
    StateTransferRelay,
    StateTransferRequest,
    StateTransferSnapshot,
    UpdateOutcome,
)
from repro.core.selection import ReplicaView, SelectionResult
from repro.groups.multicast import GroupAckMsg, GroupDataMsg
from repro.net.message import Message
from repro.sim.tracing import TraceRecord


# ---------------------------------------------------------------------------
# QoSSpec
# ---------------------------------------------------------------------------
def test_section2_example_spec():
    """'not more than 5 versions old within 2.0 s with probability 0.7'."""
    spec = QoSSpec(staleness_threshold=5, deadline=2.0, min_probability=0.7)
    assert spec.staleness_threshold == 5
    assert spec.deadline == 2.0
    assert spec.min_probability == 0.7


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(staleness_threshold=-1, deadline=1.0, min_probability=0.5),
        dict(staleness_threshold=0, deadline=0.0, min_probability=0.5),
        dict(staleness_threshold=0, deadline=-1.0, min_probability=0.5),
        dict(staleness_threshold=0, deadline=float("inf"), min_probability=0.5),
        dict(staleness_threshold=0, deadline=1.0, min_probability=1.5),
        dict(staleness_threshold=0, deadline=1.0, min_probability=-0.1),
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        QoSSpec(**kwargs)


def test_zero_staleness_and_extreme_probabilities_allowed():
    QoSSpec(0, 0.1, 0.0)
    QoSSpec(0, 0.1, 1.0)


def test_relax_deadline():
    spec = QoSSpec(2, 0.1, 0.9).relax_deadline(2.0)
    assert spec.deadline == pytest.approx(0.2)
    assert spec.staleness_threshold == 2
    with pytest.raises(ValueError):
        spec.relax_deadline(0.0)


def test_describe_mentions_all_attributes():
    text = QoSSpec(3, 0.25, 0.8).describe()
    assert "3" in text and "250" in text and "0.80" in text


def test_spec_is_frozen_and_hashable():
    spec = QoSSpec(1, 0.1, 0.5)
    assert spec in {QoSSpec(1, 0.1, 0.5)}


def test_ordering_guarantees_enumerated():
    assert {g.value for g in OrderingGuarantee} == {"sequential", "fifo", "causal"}


# ---------------------------------------------------------------------------
# ReadOnlyRegistry (§2's request model)
# ---------------------------------------------------------------------------
def test_undeclared_methods_are_updates():
    registry = ReadOnlyRegistry()
    assert registry.kind_of("anything") is RequestKind.UPDATE


def test_declared_methods_are_reads():
    registry = ReadOnlyRegistry({"get"})
    assert registry.kind_of("get") is RequestKind.READ
    assert registry.kind_of("put") is RequestKind.UPDATE


def test_declare_after_construction():
    registry = ReadOnlyRegistry()
    registry.declare("peek")
    assert registry.kind_of("peek") is RequestKind.READ
    assert registry.read_only_methods() == {"peek"}


def test_declare_empty_name_rejected():
    with pytest.raises(ValueError):
        ReadOnlyRegistry().declare("")


# ---------------------------------------------------------------------------
# Request / Reply
# ---------------------------------------------------------------------------
def test_read_without_qos_rejected():
    with pytest.raises(ValueError):
        Request(1, "c", "get", (), RequestKind.READ, None, 0.0)


def test_update_has_no_staleness_threshold():
    request = Request(1, "c", "put", ("k",), RequestKind.UPDATE, None, 0.0)
    with pytest.raises(ValueError):
        request.staleness_threshold


def test_read_staleness_threshold_from_qos():
    qos = QoSSpec(7, 1.0, 0.5)
    request = Request(1, "c", "get", (), RequestKind.READ, qos, 0.0)
    assert request.staleness_threshold == 7


def test_reply_fields():
    reply = Reply(1, "r", RequestKind.READ, "v", t1=0.12, gsn=9, deferred=True)
    assert reply.deferred and reply.gsn == 9 and reply.t1 == 0.12


# ---------------------------------------------------------------------------
# Value semantics of every record built per operation (DESIGN §8)
# ---------------------------------------------------------------------------
_QOS = QoSSpec(staleness_threshold=2, deadline=0.16, min_probability=0.9)
_READ = Request(
    7, "c", "get", ("k",), RequestKind.READ, _QOS, sent_at=1.5, targets=("r1",)
)
_UPDATE = Request(8, "c", "put", ("k", 1), RequestKind.UPDATE, None, sent_at=1.5)
_STALENESS = StalenessInfo(n_u=4, t_u=1.0, n_l=2, t_l=0.5, lazy_interval=2.0)

#: One instance of every record: the 17 payloads of ``core/requests.py``,
#: Algorithm 1's records, the client's lazy observation, the trace record
#: and the fabric's and the group layer's wire records.
RECORDS = [
    _READ,
    Reply(7, "r1", RequestKind.READ, 3, t1=0.125, gsn=3, deferred=True),
    OverloadReply(7, "r1", "queue-full", retry_after=0.05, queue_depth=4, pressure=2),
    GsnAssign(7, gsn=3, advances=False),
    GsnQuery(7, "r1"),
    LazyUpdate("p1", epoch=2, csn=3, snapshot=3, published_at=1.25),
    PublisherSuspicion("p1", "s1"),
    _STALENESS,
    PerfBroadcast("r1", ts=0.01, tq=0.002, tb=None, staleness=_STALENESS),
    SequencerSyncRequest("p2", sync_id=1),
    SequencerSyncReply(
        "p3", sync_id=1, max_gsn=5, csn=4, assignments=((7, 5),), unassigned=(8,)
    ),
    StateTransferRequest("p3", xfer_id=1),
    StateTransferRelay("p3", xfer_id=1, max_gsn=5),
    StateTransferSnapshot(
        "p1", xfer_id=1, csn=4, max_gsn=5, snapshot=4,
        commit_wait=((5, _UPDATE),), assignments=((8, 5),), skips=(6,),
    ),
    GsnSkip((6, 9)),
    ReadOutcome(
        7, value=3, response_time=0.05, timing_failure=False,
        replicas_selected=2, first_replica="r1", deferred=False, gsn=3,
    ),
    UpdateOutcome(8, value=4, response_time=0.02, first_replica="p1", gsn=4),
    ReplicaView("r1", is_primary=False, immediate_cdf=0.75, delayed_cdf=0.5, ert=0.02),
    SelectionResult(("r1", "r2"), predicted_probability=0.95, satisfied=True),
    LazyObservation(n_l=2, t_l=0.5, received_at=1.0, interval=2.0),
    TraceRecord(1.5, "net.deliver", "r1", {"sender": "c", "kind": "Request", "msg_id": 3}),
    Message("c", "r1", _READ, sent_at=1.5, msg_id=3),
    GroupDataMsg("svc-qos", "c", seq=4, payload=_READ, epoch=1),
    GroupAckMsg("svc-qos", "c", seq=4, epoch=1),
]

_READ_REPR = (
    "Request(request_id=7, client='c', method='get', args=('k',), "
    "kind=<RequestKind.READ: 'read'>, qos=QoSSpec(staleness_threshold=2, "
    "deadline=0.16, min_probability=0.9), sent_at=1.5, context=None, "
    "targets=('r1',))"
)
_STALENESS_REPR = "StalenessInfo(n_u=4, t_u=1.0, n_l=2, t_l=0.5, lazy_interval=2.0)"

#: Each record's ``repr`` as it was while the records were frozen.
PINNED_REPRS = {
    Request: _READ_REPR,
    Reply: (
        "Reply(request_id=7, replica='r1', kind=<RequestKind.READ: 'read'>, "
        "value=3, t1=0.125, gsn=3, deferred=True, context=None)"
    ),
    OverloadReply: (
        "OverloadReply(request_id=7, replica='r1', reason='queue-full', "
        "retry_after=0.05, queue_depth=4, pressure=2)"
    ),
    GsnAssign: "GsnAssign(request_id=7, gsn=3, advances=False)",
    GsnQuery: "GsnQuery(request_id=7, replica='r1')",
    LazyUpdate: (
        "LazyUpdate(publisher='p1', epoch=2, csn=3, snapshot=3, published_at=1.25)"
    ),
    PublisherSuspicion: "PublisherSuspicion(suspect='p1', reporter='s1')",
    StalenessInfo: _STALENESS_REPR,
    PerfBroadcast: (
        "PerfBroadcast(replica='r1', ts=0.01, tq=0.002, tb=None, "
        f"staleness={_STALENESS_REPR})"
    ),
    SequencerSyncRequest: "SequencerSyncRequest(new_sequencer='p2', sync_id=1)",
    SequencerSyncReply: (
        "SequencerSyncReply(member='p3', sync_id=1, max_gsn=5, csn=4, "
        "assignments=((7, 5),), unassigned=(8,))"
    ),
    StateTransferRequest: "StateTransferRequest(requester='p3', xfer_id=1)",
    StateTransferRelay: "StateTransferRelay(requester='p3', xfer_id=1, max_gsn=5)",
    StateTransferSnapshot: (
        "StateTransferSnapshot(member='p1', xfer_id=1, csn=4, max_gsn=5, "
        "snapshot=4, commit_wait=((5, Request(request_id=8, client='c', "
        "method='put', args=('k', 1), kind=<RequestKind.UPDATE: 'update'>, "
        "qos=None, sent_at=1.5, context=None, targets=None)),), unassigned=(), "
        "assignments=((8, 5),), skips=(6,))"
    ),
    GsnSkip: "GsnSkip(gsns=(6, 9))",
    ReadOutcome: (
        "ReadOutcome(request_id=7, value=3, response_time=0.05, "
        "timing_failure=False, replicas_selected=2, first_replica='r1', "
        "deferred=False, gsn=3)"
    ),
    UpdateOutcome: (
        "UpdateOutcome(request_id=8, value=4, response_time=0.02, "
        "first_replica='p1', gsn=4)"
    ),
    ReplicaView: (
        "ReplicaView(name='r1', is_primary=False, immediate_cdf=0.75, "
        "delayed_cdf=0.5, ert=0.02)"
    ),
    SelectionResult: (
        "SelectionResult(replicas=('r1', 'r2'), predicted_probability=0.95, "
        "satisfied=True)"
    ),
    LazyObservation: "LazyObservation(n_l=2, t_l=0.5, received_at=1.0, interval=2.0)",
    TraceRecord: "<1.500000 net.deliver r1 {'sender': 'c', 'kind': 'Request', 'msg_id': 3}>",
    Message: "<Message #3 c->r1 Request @1.500000>",
    GroupDataMsg: f"GroupDataMsg(group='svc-qos', origin='c', seq=4, payload={_READ_REPR}, epoch=1)",
    GroupAckMsg: "GroupAckMsg(group='svc-qos', origin='c', seq=4, epoch=1)",
}

#: Field overrides each ``__post_init__`` must reject with ``ValueError``.
INVALID = {
    Request: [
        dict(qos=None),  # a read without a QoS specification
        dict(kind=RequestKind.UPDATE),  # an update naming targets
        dict(targets=()),
        dict(targets=("r1", "")),
        dict(targets=("r1", "r1")),
    ],
    ReplicaView: [
        dict(immediate_cdf=1.5),
        dict(immediate_cdf=-0.1),
        dict(delayed_cdf=1.01),
        dict(delayed_cdf=-0.5),
    ],
    Message: [dict(size_bytes=-1)],
}


def test_every_record_and_validation_is_covered():
    """A payload added to ``core/requests.py`` joins the test below."""
    classes = [type(record) for record in RECORDS]
    assert len(set(classes)) == len(classes) == len(PINNED_REPRS)
    payloads = {
        obj
        for obj in vars(requests).values()
        if dataclasses.is_dataclass(obj) and obj.__module__ == requests.__name__
    }
    assert len(payloads) == 17
    assert payloads <= set(classes)
    assert {cls for cls in classes if "__post_init__" in vars(cls)} == set(INVALID)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_record_value_semantics(record):
    """Slotted and not frozen, and otherwise the value a frozen record was:
    equality, hash, pickle, ``replace``, ``repr`` and validation."""
    cls = type(record)
    assert "__slots__" in vars(cls)
    assert not cls.__dataclass_params__.frozen
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.sneaky = 1

    twin = dataclasses.replace(record)
    assert twin == record and twin is not record
    values = tuple(getattr(record, f.name) for f in dataclasses.fields(cls))
    try:
        expected = hash(values)
    except TypeError:  # TraceRecord.detail is a dict: unhashable, as before
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected
    # Picklable: the parallel sweep runner ships results between processes.
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record) == PINNED_REPRS[cls]

    for bad in INVALID.get(cls, ()):
        with pytest.raises(ValueError):
            dataclasses.replace(record, **bad)
