"""Failure-handling tests: sequencer failover, publisher failover, GSN
recovery, skips, and read re-stamping (our completion of §4.1's omitted
failure handling; see DESIGN.md)."""

import pytest

from repro.core.qos import QoSSpec
from repro.core.requests import GsnSkip
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import FixedLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant


def make_testbed(num_primaries=3, num_secondaries=2, lui=0.5, seed=5):
    config = ServiceConfig(
        name="svc",
        num_primaries=num_primaries,
        num_secondaries=num_secondaries,
        lazy_update_interval=lui,
        read_service_time=Constant(0.010),
        heartbeat_interval=0.1,
        suspect_timeout=0.35,
    )
    return build_testbed(
        config,
        seed=seed,
        latency=FixedLatency(0.001),
    )


QOS = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.5)


def steady_workload(testbed, client, stop_at, gap=0.15):
    reads = []

    def run():
        while testbed.sim.now < stop_at:
            yield client.call("increment")
            yield Timeout(gap)
            outcome = yield client.call("get", (), QOS)
            reads.append(outcome)
            yield Timeout(gap)

    Process(testbed.sim, run())
    return reads


# ---------------------------------------------------------------------------
# Sequencer failover
# ---------------------------------------------------------------------------
def test_new_leader_becomes_sequencer_after_crash():
    testbed = make_testbed()
    service = testbed.service
    testbed.sim.schedule_at(2.0, testbed.network.crash, "svc-seq")
    testbed.sim.run(until=5.0)
    survivor = service.primaries[0]
    assert survivor.sequencer_name == "svc-p1"
    assert survivor.is_sequencer


def test_updates_continue_after_sequencer_crash():
    testbed = make_testbed()
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})
    reads = steady_workload(testbed, client, stop_at=12.0)
    testbed.sim.schedule_at(4.0, testbed.network.crash, "svc-seq")
    testbed.sim.run(until=25.0)

    # Serving primaries (all but the new sequencer p1) must have converged
    # on an identical committed history covering every update.
    serving = [p for p in service.primaries if p.name != "svc-p1"]
    histories = {tuple(p.app.history) for p in serving}
    assert len(histories) == 1
    assert client.updates_resolved.value == client.updates_issued.value
    # Reads kept flowing after the crash too.
    assert any(not r.timing_failure for r in reads[-5:])


def test_gsn_strictly_monotonic_across_failover():
    testbed = make_testbed()
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})
    update_gsns = []

    def run():
        for i in range(30):
            outcome = yield client.call("increment")
            update_gsns.append(outcome.gsn)
            yield Timeout(0.2)

    Process(testbed.sim, run())
    testbed.sim.schedule_at(2.0, testbed.network.crash, "svc-seq")
    testbed.sim.run(until=60.0)
    assert len(update_gsns) == 30
    assert update_gsns == sorted(update_gsns)
    assert len(set(update_gsns)) == 30  # no duplicate commits


def test_reads_restamped_after_sequencer_crash():
    """A read whose GSN stamp is lost re-requests it (GsnQuery path)."""
    testbed = make_testbed()
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})
    outcomes = []

    def run():
        yield client.call("increment")
        yield Timeout(0.5)
        # Crash the sequencer, then immediately read: the stamp from the
        # dead sequencer never arrives; replicas must re-request.
        testbed.network.crash("svc-seq")
        client.invoke("get", qos=QOS, callback=outcomes.append)
        yield Timeout(10.0)

    Process(testbed.sim, run())
    testbed.sim.run(until=20.0)
    assert len(outcomes) == 1
    assert outcomes[0].value == 1
    queried = sum(p.gsn_queries_sent.value for p in service.primaries) + sum(
        s.gsn_queries_sent.value for s in service.secondaries
    )
    assert queried > 0


# ---------------------------------------------------------------------------
# Lazy publisher failover
# ---------------------------------------------------------------------------
def test_publisher_role_moves_on_crash():
    testbed = make_testbed()
    service = testbed.service
    assert service.primaries[0].is_lazy_publisher
    testbed.sim.schedule_at(2.0, testbed.network.crash, "svc-p1")
    testbed.sim.run(until=5.0)
    assert service.primaries[1].is_lazy_publisher


def test_lazy_propagation_continues_after_publisher_crash():
    testbed = make_testbed(lui=0.4)
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})
    steady_workload(testbed, client, stop_at=10.0)
    testbed.sim.schedule_at(3.0, testbed.network.crash, "svc-p1")
    testbed.sim.run(until=20.0)
    new_publisher = service.primaries[1]
    assert new_publisher.lazy_updates_sent.value > 0
    final = max(p.my_csn for p in service.primaries[1:])
    for secondary in service.secondaries:
        assert secondary.my_csn >= final - 2  # within a couple of lazy rounds


# ---------------------------------------------------------------------------
# Skip handling
# ---------------------------------------------------------------------------
def test_gsn_skip_advances_commit_floor():
    testbed = make_testbed()
    primary = testbed.service.primaries[0]
    assert primary.my_csn == 0
    primary._on_skip(GsnSkip((1, 2, 3)))
    assert primary.my_csn == 3


def test_gsn_skip_ignores_already_committed():
    testbed = make_testbed()
    primary = testbed.service.primaries[0]
    primary.my_csn = 5
    primary._on_skip(GsnSkip((2, 3)))
    assert primary.my_csn == 5


def test_skip_unblocks_waiting_commit():
    """An update assigned GSN 2 can commit once GSN 1 is declared a skip."""
    from repro.core.replica import PendingRequest
    from repro.core.requests import Request, RequestKind

    testbed = make_testbed()
    primary = testbed.service.primaries[0]
    request = Request(999, "c", "increment", (), RequestKind.UPDATE, None, 0.0)
    pending = PendingRequest(request=request, arrived_at=0.0)
    primary._bind(pending, 2)
    assert primary.queue_depth == 0  # blocked on the gap at GSN 1
    primary._on_skip(GsnSkip((1,)))
    assert primary.queue_depth == 1  # ready to execute now


# ---------------------------------------------------------------------------
# Client-visible liveness under crashes
# ---------------------------------------------------------------------------
def test_client_survives_loss_of_selected_replica():
    """Algorithm 1 selects sets that tolerate one crash; killing one
    selected replica mid-request must not make the client hang."""
    testbed = make_testbed(num_primaries=3, num_secondaries=3)
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})
    reads = steady_workload(testbed, client, stop_at=15.0)
    # Crash a secondary that will certainly be in early selections (all
    # replicas are selected early while windows bootstrap).
    testbed.sim.schedule_at(1.0, testbed.network.crash, "svc-s1")
    testbed.sim.run(until=40.0)
    assert len(reads) >= 20
    answered = [r for r in reads if r.response_time is not None]
    assert len(answered) >= len(reads) - 2


def test_membership_view_shrinks_after_crash():
    testbed = make_testbed()
    testbed.sim.schedule_at(1.0, testbed.network.crash, "svc-p2")
    testbed.sim.run(until=5.0)
    view = testbed.membership.view_of("svc.primary")
    assert "svc-p2" not in view
    # Replicas converged on the new view.
    assert "svc-p2" not in testbed.service.primaries[0].primary_view
