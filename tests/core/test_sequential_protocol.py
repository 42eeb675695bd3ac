"""Protocol tests for the sequential consistency handler (§4.1).

These run small deterministic testbeds (fixed 1 ms links, constant service
times) and assert the protocol invariants directly on the replica
handlers: GSN assignment, commit order, staleness measurement, deferred
reads, and lazy propagation.
"""

import pytest

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import FixedLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant


def make_testbed(
    num_primaries=2,
    num_secondaries=2,
    lui=1.0,
    service_time=None,
    seed=1,
):
    config = ServiceConfig(
        name="svc",
        num_primaries=num_primaries,
        num_secondaries=num_secondaries,
        lazy_update_interval=lui,
        read_service_time=service_time or Constant(0.010),
    )
    return build_testbed(config, seed=seed, latency=FixedLatency(0.001))


QOS = QoSSpec(staleness_threshold=100, deadline=1.0, min_probability=0.5)


def drive(testbed, client, steps, qos=QOS, gap=0.1):
    """Issue ``steps`` alternating increment/get pairs; return read outcomes."""
    reads = []

    def run():
        for _ in range(steps):
            yield client.call("increment")
            yield Timeout(gap)
            outcome = yield client.call("get", (), qos)
            reads.append(outcome)
            yield Timeout(gap)

    Process(testbed.sim, run())
    testbed.sim.run(until=400.0)
    return reads


# ---------------------------------------------------------------------------
# Roles
# ---------------------------------------------------------------------------
def test_sequencer_is_primary_group_leader():
    testbed = make_testbed()
    service = testbed.service
    assert service.sequencer.is_sequencer
    assert service.sequencer.sequencer_name == "svc-seq"
    for primary in service.primaries:
        assert not primary.is_sequencer
        assert primary.is_primary


def test_lazy_publisher_is_first_serving_primary():
    testbed = make_testbed()
    service = testbed.service
    assert service.primaries[0].is_lazy_publisher
    assert not service.sequencer.is_lazy_publisher
    assert not service.primaries[1].is_lazy_publisher


def test_secondary_roles():
    testbed = make_testbed()
    for secondary in testbed.service.secondaries:
        assert secondary.is_secondary and not secondary.is_primary


# ---------------------------------------------------------------------------
# Update path (§4.1.1)
# ---------------------------------------------------------------------------
def test_updates_get_consecutive_gsns():
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    drive(testbed, client, steps=5)
    assert testbed.service.sequencer.my_gsn == 5
    for primary in testbed.service.primaries:
        assert primary.my_csn == 5
        assert primary.app.value == 5


def test_sequencer_does_not_execute_updates():
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    drive(testbed, client, steps=3)
    assert testbed.service.sequencer.app.value == 0
    assert testbed.service.sequencer.updates_committed.value == 0


def test_all_primaries_commit_same_order_under_concurrency():
    """Two clients race updates; every primary must apply the identical
    sequence (sequential consistency's core guarantee)."""
    testbed = make_testbed(num_primaries=3)
    service = testbed.service
    c1 = service.create_client("c1", read_only_methods={"get"})
    c2 = service.create_client("c2", read_only_methods={"get"})

    def spam(client, count, gap):
        for _ in range(count):
            client.invoke("increment")
            yield Timeout(gap)

    Process(testbed.sim, spam(c1, 20, 0.013))
    Process(testbed.sim, spam(c2, 20, 0.017))
    testbed.sim.run(until=60.0)

    histories = [tuple(p.app.history) for p in service.primaries]
    assert histories[0] == histories[1] == histories[2]
    assert len(histories[0]) == 40
    assert all(p.my_csn == 40 for p in service.primaries)


def test_update_reply_carries_commit_gsn():
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    outcomes = []

    def run():
        for _ in range(3):
            outcome = yield client.call("increment")
            outcomes.append(outcome)
            yield Timeout(0.05)

    Process(testbed.sim, run())
    testbed.sim.run(until=10.0)
    assert [o.gsn for o in outcomes] == [1, 2, 3]
    assert [o.value for o in outcomes] == [1, 2, 3]


# ---------------------------------------------------------------------------
# Read path (§4.1.2)
# ---------------------------------------------------------------------------
def test_reads_do_not_advance_gsn():
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})

    def run():
        yield client.call("increment")
        yield Timeout(0.1)
        for _ in range(5):
            yield client.call("get", (), QOS)
            yield Timeout(0.05)

    Process(testbed.sim, run())
    testbed.sim.run(until=10.0)
    assert testbed.service.sequencer.my_gsn == 1


def test_read_value_reflects_sequenced_prefix():
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    reads = drive(testbed, client, steps=6)
    # With a large staleness threshold, each read may lag, but its value
    # must equal its reported GSN (CounterObject value == version).
    for outcome in reads:
        assert outcome.value == outcome.gsn


def test_staleness_bound_respected_in_responses():
    """A response must never be more stale than the client's threshold:
    read GSN stamp minus the responder's commit GSN <= a."""
    testbed = make_testbed(num_secondaries=4, lui=2.0)
    qos = QoSSpec(staleness_threshold=1, deadline=5.0, min_probability=0.5)
    client = testbed.service.create_client("c", read_only_methods={"get"})
    reads = drive(testbed, client, steps=10, qos=qos, gap=0.3)
    assert len(reads) == 10
    for outcome in reads:
        # value == versions applied at responder; with threshold 1 the
        # response may miss at most 1 of the updates issued before it.
        # Each read happens right after its own update, so the stamp is
        # the number of updates issued so far.
        assert outcome.value is not None


def test_zero_staleness_read_from_secondary_defers():
    """With a=0 and updates in flight, a stale secondary must defer to the
    next lazy update rather than answer stale."""
    testbed = make_testbed(num_primaries=1, num_secondaries=1, lui=0.5)
    service = testbed.service
    qos = QoSSpec(staleness_threshold=0, deadline=10.0, min_probability=0.99)
    client = service.create_client("c", read_only_methods={"get"})
    reads = drive(testbed, client, steps=8, qos=qos, gap=0.05)
    secondary = service.secondaries[0]
    # The secondary served some reads; any it served as deferred responded
    # only after a lazy update, i.e. with the then-current state.
    for outcome in reads:
        assert outcome.value == outcome.gsn
    assert all(o.value is not None for o in reads)


def test_deferred_read_waits_for_lazy_update():
    """Force reads onto the secondary only: stale reads must be answered
    right after the next lazy update, flagged as deferred."""
    from repro.core.selection import SelectionResult, SelectionStrategy

    class SecondariesOnly(SelectionStrategy):
        def select(self, candidates, qos, stale_factor):
            names = tuple(c.name for c in candidates if not c.is_primary)
            return SelectionResult(names, 1.0, True)

    testbed = make_testbed(num_primaries=1, num_secondaries=1, lui=1.0)
    service = testbed.service
    secondary = service.secondaries[0]
    qos = QoSSpec(staleness_threshold=0, deadline=10.0, min_probability=0.99)
    client = service.create_client(
        "c", read_only_methods={"get"}, strategy=SecondariesOnly()
    )
    reads = drive(testbed, client, steps=6, qos=qos, gap=0.1)
    assert secondary.deferred_reads_served.value > 0
    deferred = [o for o in reads if o.deferred]
    assert deferred, "deferred service should surface in outcomes"
    for outcome in deferred:
        # Response time includes waiting for the next lazy update, which
        # is far longer than the 10 ms service time.
        assert outcome.response_time > 0.05
        assert outcome.first_replica == secondary.name


# ---------------------------------------------------------------------------
# Lazy propagation (§3)
# ---------------------------------------------------------------------------
def test_lazy_updates_propagate_state_to_secondaries():
    testbed = make_testbed(lui=0.5)
    client = testbed.service.create_client("c", read_only_methods={"get"})
    drive(testbed, client, steps=5, gap=0.2)
    testbed.sim.run(until=testbed.sim.now + 2.0)
    for secondary in testbed.service.secondaries:
        assert secondary.app.value == 5
        assert secondary.my_csn == 5
        assert secondary.lazy_updates_applied.value > 0


def test_only_publisher_sends_lazy_updates():
    testbed = make_testbed(lui=0.5)
    testbed.sim.run(until=5.0)
    service = testbed.service
    assert service.primaries[0].lazy_updates_sent.value >= 8
    assert service.primaries[1].lazy_updates_sent.value == 0
    assert service.sequencer.lazy_updates_sent.value == 0


def test_lazy_interval_controls_propagation_rate():
    fast = make_testbed(lui=0.25)
    slow = make_testbed(lui=2.0)
    fast.sim.run(until=10.0)
    slow.sim.run(until=10.0)
    assert (
        fast.service.primaries[0].lazy_updates_sent.value
        > 3 * slow.service.primaries[0].lazy_updates_sent.value
    )


def test_stale_lazy_update_not_applied_backwards():
    """A secondary never regresses its CSN on an older snapshot."""
    testbed = make_testbed(lui=0.5)
    secondary = testbed.service.secondaries[0]
    from repro.core.requests import LazyUpdate

    client = testbed.service.create_client("c", read_only_methods={"get"})
    drive(testbed, client, steps=3, gap=0.2)
    testbed.sim.run(until=testbed.sim.now + 1.0)
    csn_before = secondary.my_csn
    stale = LazyUpdate(publisher="x", epoch=999, csn=1, snapshot={"value": 1, "history": [1]})
    secondary._on_lazy_update(stale)
    assert secondary.my_csn == csn_before
    assert secondary.app.value == csn_before


# ---------------------------------------------------------------------------
# Reply metadata
# ---------------------------------------------------------------------------
def test_replies_piggyback_t1():
    testbed = make_testbed(service_time=Constant(0.020))
    client = testbed.service.create_client("c", read_only_methods={"get"})
    reads = drive(testbed, client, steps=3)
    stats = client.repository.stats_for(reads[-1].first_replica)
    # Windows were fed by broadcasts: service time constant at 20 ms.
    assert stats.ts_window.latest == pytest.approx(0.020)
    # Gateway delay approx 2 ms round trip on 1 ms links.
    assert stats.latest_tg == pytest.approx(0.002, abs=0.002)
