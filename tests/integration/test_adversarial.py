"""Adversarial timing and scale tests."""

import pytest

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import FixedLatency, LanLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant, Normal


def make_testbed(**kwargs):
    defaults = dict(
        name="svc",
        num_primaries=3,
        num_secondaries=2,
        lazy_update_interval=0.5,
        read_service_time=Constant(0.010),
        heartbeat_interval=0.1,
        suspect_timeout=0.35,
    )
    defaults.update(kwargs)
    return build_testbed(
        ServiceConfig(**defaults),
        seed=kwargs.pop("seed", 43),
        latency=FixedLatency(0.001),
    )


QOS = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.5)


def test_sequencer_crash_with_unassigned_update_burst():
    """Crash the sequencer milliseconds after an update burst: some GSN
    assignments never leave it.  Failover must re-assign; every update
    commits exactly once, in identical order, everywhere."""
    testbed = make_testbed()
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})
    acks = []

    def burst():
        yield Timeout(1.0)
        for i in range(10):
            client.invoke("increment", callback=acks.append)
        # Crash while the burst's assignments are (at best) in flight.
        yield Timeout(0.0015)
        testbed.network.crash("svc-seq")

    Process(testbed.sim, burst())
    testbed.sim.run(until=60.0)

    serving = [p for p in service.primaries if p.name != "svc-p1"]
    histories = {tuple(p.app.history) for p in serving}
    assert len(histories) == 1
    history = list(next(iter(histories)))
    assert history == list(range(1, 11))  # all 10, exactly once, in order
    assert len(acks) == 10  # every update acknowledged to the client


def test_two_successive_sequencer_crashes():
    """Crash the original sequencer, then its successor, mid-workload."""
    testbed = make_testbed(num_primaries=4)
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})

    def workload():
        for _ in range(40):
            yield client.call("increment")
            yield Timeout(0.2)

    Process(testbed.sim, workload())
    testbed.sim.schedule_at(2.0, testbed.network.crash, "svc-seq")
    testbed.sim.schedule_at(5.0, testbed.network.crash, "svc-p1")
    testbed.sim.run(until=120.0)

    live_serving = [
        p for p in service.primaries[1:]  # p1 crashed
        if p.name != "svc-p2"  # p2 is the final sequencer
    ]
    assert all(p.app.history == list(range(1, 41)) for p in live_serving)
    assert client.updates_resolved.value == 40


def test_membership_service_outage_does_not_stop_traffic():
    """With the membership service down, views freeze but the data path
    (requests, GSN assignment, replies, lazy updates) keeps flowing."""
    testbed = make_testbed()
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})
    testbed.network.crash("membership")
    reads = []

    def workload():
        for _ in range(10):
            yield client.call("increment")
            yield Timeout(0.1)
            outcome = yield client.call("get", (), QOS)
            reads.append(outcome)
            yield Timeout(0.1)

    Process(testbed.sim, workload())
    testbed.sim.run(until=30.0)
    assert len(reads) == 10
    assert all(o.value is not None for o in reads)
    assert service.primaries[0].my_csn == 10


def test_update_during_view_change_window():
    """Updates issued while eviction is being detected must not be lost."""
    testbed = make_testbed()
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})

    def workload():
        yield Timeout(0.9)
        # Crash a serving primary, then immediately keep updating through
        # the detection window.
        testbed.network.crash("svc-p2")
        for _ in range(10):
            yield client.call("increment")
            yield Timeout(0.05)

    Process(testbed.sim, workload())
    testbed.sim.run(until=30.0)
    survivors = [p for p in service.primaries if p.name != "svc-p2"]
    assert all(p.app.history == list(range(1, 11)) for p in survivors)


@pytest.mark.slow
def test_scale_many_replicas_many_clients():
    """A larger deployment (20 serving replicas, 6 clients) stays correct
    and responsive."""
    # Parameters stay in the paper's regime (deadline much smaller than
    # the LUI) — outside it, Eq. 3's independence assumption for deferred
    # reads is over-confident; see DESIGN.md §5a.
    config = ServiceConfig(
        name="big",
        num_primaries=5,
        num_secondaries=15,
        lazy_update_interval=2.0,
        read_service_time=Normal(0.050, 0.020, floor=0.002),
    )
    testbed = build_testbed(config, seed=47, latency=LanLatency())
    service = testbed.service
    qos = QoSSpec(staleness_threshold=5, deadline=0.25, min_probability=0.8)
    clients = []
    reads = []
    for i in range(6):
        client = service.create_client(f"c{i}", read_only_methods={"get"})
        clients.append(client)

        def run(client=client):
            for _ in range(30):
                yield client.call("increment")
                yield Timeout(0.1)
                outcome = yield client.call("get", (), qos)
                reads.append(outcome)
                yield Timeout(0.1)

        Process(testbed.sim, run())
    testbed.sim.run(until=400.0)
    testbed.sim.run(until=testbed.sim.now + 3.0)

    total = 6 * 30
    assert len(reads) == total
    assert all(o.value == o.gsn for o in reads if o.value is not None)
    histories = {tuple(p.app.history) for p in service.primaries}
    assert len(histories) == 1 and len(next(iter(histories))) == total
    for secondary in service.secondaries:
        assert secondary.app.value == total
    # Past the bootstrap phase (first half: 20 replicas' windows filling),
    # the adaptive selection keeps timing failures moderate even at scale
    # and under a hard update rate (~20/s against a=5, LUI=1 s).
    steady = reads[total // 2:]
    steady_failures = sum(1 for o in steady if o.timing_failure)
    assert steady_failures / len(steady) < 0.25
