"""Unit tests for the server-side handler base machinery."""

import pytest

from repro.core.qos import QoSSpec
from repro.core.replica import PendingRequest, ServiceGroups
from repro.core.requests import Request, RequestKind
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import FixedLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant


def _testbed(**kwargs):
    defaults = dict(
        name="svc",
        num_primaries=2,
        num_secondaries=1,
        lazy_update_interval=1.0,
        read_service_time=Constant(0.020),
    )
    defaults.update(kwargs)
    return build_testbed(
        ServiceConfig(**defaults), seed=53, latency=FixedLatency(0.001)
    )


QOS = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.5)


def test_pending_request_deferred_flag():
    request = Request(1, "c", "get", (), RequestKind.READ, QOS, 0.0)
    pending = PendingRequest(request=request, arrived_at=0.0)
    assert not pending.deferred
    pending.defer_started_at = 1.0
    assert pending.deferred
    fresh = PendingRequest(request=request, arrived_at=0.0, tb=0.5)
    assert fresh.deferred


def test_service_groups_names():
    groups = ServiceGroups("x")
    assert (groups.primary, groups.secondary, groups.qos) == (
        "x.primary", "x.secondary", "x.qos"
    )


def test_queue_depth_and_serialization():
    """Requests execute one at a time; queue depth reflects backlog."""
    testbed = _testbed()
    primary = testbed.service.primaries[0]
    request = Request(100, "c", "get", (), RequestKind.READ, QOS, 0.0)
    for i in range(3):
        primary.enqueue_ready(
            PendingRequest(request=request, arrived_at=testbed.sim.now)
        )
    assert primary.queue_depth == 3  # 1 in service + 2 waiting
    testbed.sim.run(until=1.0)
    assert primary.queue_depth == 0


def test_busy_time_accumulates_service_time():
    testbed = _testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})

    def run():
        for _ in range(5):
            yield client.call("get", (), QOS)
            yield Timeout(0.1)

    Process(testbed.sim, run())
    testbed.sim.run(until=10.0)
    served = [
        r for r in testbed.service.primaries + testbed.service.secondaries
        if r.reads_served.value
    ]
    assert served
    for replica in served:
        assert replica.busy_time == pytest.approx(0.020 * replica.reads_served.value)


def test_queuing_delay_measured_under_contention():
    """Two back-to-back reads at one replica: the second one's measured
    t_q reflects waiting behind the first."""
    from repro.core.selection import SelectionResult, SelectionStrategy

    class OnlyP1(SelectionStrategy):
        def select(self, candidates, qos, stale_factor):
            return SelectionResult(("svc-p1",), 1.0, True)

    testbed = _testbed(read_service_time=Constant(0.050))
    client = testbed.service.create_client(
        "c", read_only_methods={"get"}, strategy=OnlyP1()
    )
    client.invoke("get", qos=QOS)
    client.invoke("get", qos=QOS)
    testbed.sim.run(until=5.0)
    stats = client.repository.stats_for("svc-p1")
    tq_samples = stats.tq_window.samples()
    assert len(tq_samples) == 2
    assert tq_samples[0] < 0.005  # first read served immediately
    assert tq_samples[1] == pytest.approx(0.050, abs=0.01)  # queued behind it


def test_client_names_excludes_replicas():
    testbed = _testbed()
    testbed.service.create_client("alice")
    testbed.service.create_client("bob")
    primary = testbed.service.primaries[0]
    assert sorted(primary.client_names()) == ["alice", "bob"]
    assert primary.replica_names() == {
        "svc-seq", "svc-p1", "svc-p2", "svc-s1"
    }


def test_crashed_replica_drops_in_service_work():
    """A crash mid-service loses the request (no reply, no commit)."""
    testbed = _testbed(read_service_time=Constant(0.100))
    primary = testbed.service.primaries[0]
    request = Request(200, "c", "get", (), RequestKind.READ, QOS, 0.0)
    primary.enqueue_ready(PendingRequest(request=request, arrived_at=0.0))
    testbed.sim.schedule_at(0.05, testbed.network.crash, primary.name)
    testbed.sim.run(until=2.0)
    assert primary.reads_served.value == 0
    assert primary.busy_time == 0.0
