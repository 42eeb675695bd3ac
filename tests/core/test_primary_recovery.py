"""Primary crash -> evict -> rejoin round trips via state transfer.

DESIGN.md §9: a rejoining primary asks the current sequencer for a state
transfer; a donor serving primary ships committed state, CSN/GSN, and the
uncommitted log suffix; the requester replays it and re-enters the primary
group at full strength.
"""

import pytest

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import FixedLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant
from repro.sim.tracing import Trace


def make_testbed(num_primaries=3, num_secondaries=2, seed=7, trace=None):
    config = ServiceConfig(
        name="svc",
        num_primaries=num_primaries,
        num_secondaries=num_secondaries,
        lazy_update_interval=0.5,
        read_service_time=Constant(0.010),
        heartbeat_interval=0.1,
        suspect_timeout=0.35,
    )
    return build_testbed(
        config,
        seed=seed,
        latency=FixedLatency(0.001),
        trace=trace,
    )


QOS = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.5)


def updates(testbed, client, count, gap=0.1):
    outcomes = []

    def run():
        for _ in range(count):
            outcome = yield client.call("increment")
            outcomes.append(outcome)
            yield Timeout(gap)

    Process(testbed.sim, run())
    return outcomes


def serving_primaries(service, membership):
    view = membership.view_of(service.groups.primary)
    return [
        h for h in service.primaries if h.name in view and h.name != view.leader
    ]


# ---------------------------------------------------------------------------
# The acceptance round trip: crash -> evict -> rejoin -> full strength
# ---------------------------------------------------------------------------
def test_primary_rejoin_restores_full_strength():
    trace = Trace()
    testbed = make_testbed(trace=trace)
    service = testbed.service
    client = service.create_client("c1")
    victim = service.primaries[1]

    updates(testbed, client, 8)
    testbed.sim.run(until=1.0)
    testbed.network.crash(victim.name)
    testbed.sim.run(until=2.0)  # evicted; updates continue without it
    assert victim.name not in testbed.membership.view_of(service.groups.primary)

    committed_before = updates(testbed, client, 8)
    testbed.sim.run(until=3.0)
    service.recover_primary(victim.name)
    testbed.sim.run(until=5.0)

    view = testbed.membership.view_of(service.groups.primary)
    assert victim.name in view
    # Rejoined at the tail: never usurps the sequencer or publisher.
    assert view.members[-1] == victim.name

    donor = next(
        h for h in serving_primaries(service, testbed.membership) if h is not victim
    )
    assert not victim._recovering
    assert victim.my_csn == donor.my_csn
    assert victim.my_gsn >= donor.my_csn
    assert victim.app.history == donor.app.history
    assert victim.app.value == donor.app.value
    assert victim.state_transfers_completed.value >= 1
    assert donor.my_csn >= 16  # nothing was lost while the victim was out
    assert len(committed_before) == 8
    done = [r for r in trace.filter("replica.state-transfer-done", victim.name)]
    assert done and done[-1].detail["donor"] is not None


def test_rejoined_primary_commits_new_updates():
    testbed = make_testbed()
    service = testbed.service
    client = service.create_client("c1")
    victim = service.primaries[2]

    updates(testbed, client, 5)
    testbed.sim.run(until=1.0)
    testbed.network.crash(victim.name)
    testbed.sim.run(until=2.5)
    service.recover_primary(victim.name)
    testbed.sim.run(until=3.5)

    before = victim.my_csn
    updates(testbed, client, 5)
    testbed.sim.run(until=5.5)
    assert victim.my_csn >= before + 5  # participates at full strength


def test_primary_rejoin_under_continuous_load():
    testbed = make_testbed(seed=11)
    service = testbed.service
    client = service.create_client("c1")
    victim = service.primaries[1]

    updates(testbed, client, 40, gap=0.1)
    testbed.sim.run(until=1.0)
    testbed.network.crash(victim.name)
    testbed.sim.run(until=2.2)
    service.recover_primary(victim.name)
    testbed.sim.run(until=8.0)

    donor = next(
        h for h in serving_primaries(service, testbed.membership) if h is not victim
    )
    assert victim.my_csn == donor.my_csn >= 40
    assert victim.app.history == donor.app.history


def test_rejoin_survives_sequencer_failover_mid_transfer():
    testbed = make_testbed(seed=3)
    service = testbed.service
    client = service.create_client("c1")
    victim = service.primaries[1]
    old_sequencer = service.sequencer

    updates(testbed, client, 6)
    testbed.sim.run(until=1.0)
    testbed.network.crash(victim.name)
    testbed.sim.run(until=2.5)
    # Recover the primary and kill the sequencer in the same instant: the
    # first StateTransferRequest targets a dead leader, and the retry loop
    # must re-resolve the new one after failover.
    service.recover_primary(victim.name)
    testbed.network.crash(old_sequencer.name)
    testbed.sim.run(until=6.0)

    view = testbed.membership.view_of(service.groups.primary)
    assert old_sequencer.name not in view
    assert view.leader == service.primaries[0].name  # promoted by rank
    assert victim.name in view
    assert not victim._recovering
    assert victim.state_transfers_completed.value >= 1
    donor = service.primaries[2]
    assert victim.my_csn == donor.my_csn
    assert victim.app.history == donor.app.history


def test_lone_rejoiner_keeps_retained_state():
    trace = Trace()
    testbed = make_testbed(num_primaries=1, num_secondaries=0, trace=trace)
    service = testbed.service
    client = service.create_client("c1")
    victim = service.primaries[0]

    updates(testbed, client, 5)
    testbed.sim.run(until=1.0)
    committed = victim.my_csn
    assert committed >= 5
    # Take the whole primary group down, then bring only the ex-serving
    # primary back: it rejoins an empty view as leader, so nobody holds
    # newer committed state and it must keep what it retained.
    testbed.network.crash(service.sequencer.name)
    testbed.network.crash(victim.name)
    testbed.sim.run(until=2.5)
    service.recover_primary(victim.name)
    testbed.sim.run(until=4.0)

    assert not victim._recovering
    assert victim.my_csn == committed
    done = [r for r in trace.filter("replica.state-transfer-done", victim.name)]
    assert done and done[-1].detail["donor"] is None


# ---------------------------------------------------------------------------
# Dispatch and validation
# ---------------------------------------------------------------------------
def test_recover_replica_dispatches_on_role():
    testbed = make_testbed()
    service = testbed.service
    primary = service.primaries[0]
    secondary = service.secondaries[0]
    testbed.sim.run(until=0.5)
    testbed.network.crash(primary.name)
    testbed.network.crash(secondary.name)
    testbed.sim.run(until=1.5)

    assert service.recover_replica(secondary.name) is secondary
    assert service.recover_replica(primary.name) is primary
    assert primary._recovering  # the transfer protocol was started
    testbed.sim.run(until=3.0)
    assert not primary._recovering


def test_recover_primary_rejects_secondary():
    testbed = make_testbed()
    service = testbed.service
    with pytest.raises(ValueError):
        service.recover_primary(service.secondaries[0].name)


def test_flush_pending_invalidates_inflight_completions():
    """A completion scheduled before a crash must not commit stale work
    after recovery (the incarnation guard in ReplicaHandlerBase)."""
    testbed = make_testbed()
    service = testbed.service
    client = service.create_client("c1")
    victim = service.primaries[1]

    updates(testbed, client, 3, gap=0.02)
    # Run just long enough for a request to be in service on the victim.
    deadline = testbed.sim.now + 2.0
    while not victim._busy and testbed.sim.now < deadline:
        testbed.sim.run(until=testbed.sim.now + 0.005)
    assert victim._busy
    incarnation = victim._incarnation
    served_before = victim.updates_committed.value + victim.reads_served.value

    testbed.network.crash(victim.name)
    victim.flush_pending()
    assert victim._incarnation == incarnation + 1
    assert not victim._busy
    testbed.sim.run(until=testbed.sim.now + 0.5)
    # The stale completion fired but was discarded by the guard.
    assert victim.updates_committed.value + victim.reads_served.value == served_before
