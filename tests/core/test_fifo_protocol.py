"""Protocol tests for the FIFO consistency handler (Figure 2, service B)."""

import pytest

from repro.core.qos import OrderingGuarantee, QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import FixedLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant


def make_fifo_testbed(num_primaries=3, num_secondaries=2, lui=0.5, seed=2):
    config = ServiceConfig(
        name="fifo",
        ordering=OrderingGuarantee.FIFO,
        num_primaries=num_primaries,
        num_secondaries=num_secondaries,
        lazy_update_interval=lui,
        read_service_time=Constant(0.010),
    )
    return build_testbed(config, seed=seed, latency=FixedLatency(0.001))


QOS = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.5)


def test_fifo_service_has_no_sequencer():
    testbed = make_fifo_testbed()
    assert testbed.service.sequencer is None
    assert testbed.service.sequencer_name is None


def test_fifo_primary_group_leader_is_first_primary():
    testbed = make_fifo_testbed()
    primary = testbed.service.primaries[0]
    assert primary.primary_view.leader == primary.name
    assert primary.is_lazy_publisher


def test_per_client_order_preserved_on_all_primaries():
    testbed = make_fifo_testbed()
    service = testbed.service
    from repro.apps.kvstore import KVStore

    # Rebuild with KVStore state for order-sensitive assertions.
    config = ServiceConfig(
        name="fifo",
        ordering=OrderingGuarantee.FIFO,
        num_primaries=3,
        num_secondaries=0,
        lazy_update_interval=0.5,
        read_service_time=Constant(0.010),
    )
    testbed = build_testbed(
        config, seed=3, latency=FixedLatency(0.001), app_factory=KVStore
    )
    service = testbed.service
    client = service.create_client(
        "c", read_only_methods=set(KVStore.READ_ONLY_METHODS)
    )

    def run():
        for i in range(10):
            client.invoke("put", ("key", i))
            yield Timeout(0.005)

    Process(testbed.sim, run())
    testbed.sim.run(until=10.0)
    for primary in service.primaries:
        assert primary.app.get("key") == 9  # last write from this client wins
        assert primary.commit_count == 10


def test_two_clients_fifo_independently():
    testbed = make_fifo_testbed(num_secondaries=0)
    service = testbed.service
    c1 = service.create_client("c1", read_only_methods={"get"})
    c2 = service.create_client("c2", read_only_methods={"get"})

    def spam(client, n, gap):
        for _ in range(n):
            client.invoke("increment")
            yield Timeout(gap)

    Process(testbed.sim, spam(c1, 10, 0.007))
    Process(testbed.sim, spam(c2, 10, 0.011))
    testbed.sim.run(until=10.0)
    for primary in service.primaries:
        assert primary.commit_count == 20
        assert primary.app.value == 20


def test_fifo_reads_served_without_sequencer_stamp():
    testbed = make_fifo_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    outcomes = []

    def run():
        yield client.call("increment")
        yield Timeout(0.1)
        outcome = yield client.call("get", (), QOS)
        outcomes.append(outcome)

    Process(testbed.sim, run())
    testbed.sim.run(until=5.0)
    assert len(outcomes) == 1
    assert outcomes[0].value == 1
    assert not outcomes[0].timing_failure


def test_fifo_lazy_propagation_to_secondaries():
    testbed = make_fifo_testbed(lui=0.25)
    client = testbed.service.create_client("c", read_only_methods={"get"})

    def run():
        for _ in range(5):
            yield client.call("increment")
            yield Timeout(0.05)

    Process(testbed.sim, run())
    testbed.sim.run(until=5.0)
    for secondary in testbed.service.secondaries:
        assert secondary.commit_count == 5
        assert secondary.app.value == 5
        assert secondary.lazy_updates_applied.value > 0


def test_fifo_client_candidates_include_all_primaries():
    """Without a sequencer, no primary is excluded from selection."""
    testbed = make_fifo_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    candidates = client.candidate_views(QOS)
    names = {c.name for c in candidates}
    assert names == {
        p.name for p in testbed.service.primaries
    } | {s.name for s in testbed.service.secondaries}


def test_unregistered_ordering_rejected():
    """The handler registry rejects guarantees nothing is registered for."""
    from repro.core.handlers import replica_handler_for

    class FakeOrdering:
        pass

    with pytest.raises(NotImplementedError):
        replica_handler_for(FakeOrdering())  # type: ignore[arg-type]
