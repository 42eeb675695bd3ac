"""Tests for secondary recovery (channel epochs)."""

import pytest

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.groups.membership import MembershipConfig
from repro.net.latency import FixedLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant


def make_testbed(num_secondaries=2, lui=0.5):
    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=num_secondaries,
        lazy_update_interval=lui,
        read_service_time=Constant(0.010),
        membership=MembershipConfig(heartbeat_interval=0.1, suspect_timeout=0.35),
    )
    return build_testbed(
        config,
        seed=13,
        latency=FixedLatency(0.001),
    )


QOS = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.5)


def updates(testbed, client, count, gap=0.1):
    def run():
        for _ in range(count):
            yield client.call("increment")
            yield Timeout(gap)

    return Process(testbed.sim, run())


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------
def test_recover_secondary_rejoins_and_resyncs():
    testbed = make_testbed(lui=0.5)
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})
    victim = service.secondaries[0]

    updates(testbed, client, 20, gap=0.2)
    testbed.sim.schedule_at(1.0, testbed.network.crash, victim.name)
    testbed.sim.run(until=3.0)
    assert victim.name not in testbed.membership.view_of("svc.secondary")
    value_at_crash = victim.app.value

    service.recover_secondary(victim.name)
    testbed.sim.run(until=10.0)
    assert victim.name in testbed.membership.view_of("svc.secondary")
    assert victim.app.value == 20
    assert victim.app.value > value_at_crash
    assert victim.my_csn == 20


def test_recovered_secondary_serves_deferred_and_fresh_reads():
    testbed = make_testbed(lui=0.5)
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})
    victim = service.secondaries[0]
    reads_before = victim.reads_served.value

    def run():
        for i in range(30):
            yield client.call("increment")
            yield Timeout(0.1)
            yield client.call("get", (), QOS)
            yield Timeout(0.1)

    Process(testbed.sim, run())
    testbed.sim.schedule_at(1.0, testbed.network.crash, victim.name)
    testbed.sim.schedule_at(3.0, service.recover_secondary, victim.name)
    testbed.sim.run(until=30.0)
    # It served reads again after recovery (channel epochs healed).
    assert victim.reads_served.value > reads_before
    assert victim.app.value == 30


def test_recover_primary_rejected():
    testbed = make_testbed()
    service = testbed.service
    testbed.network.crash("svc-p1")
    with pytest.raises(ValueError):
        service.recover_secondary("svc-p1")


# ---------------------------------------------------------------------------
# Channel epochs (the mechanism underneath recovery)
# ---------------------------------------------------------------------------
def test_channel_epoch_reset_restarts_sequencing(sim):
    from repro.groups.multicast import FifoReceiver, FifoSender

    sent = []
    sender = FifoSender(sim, "a", lambda r, m, s: sent.append(m))
    sender.send("g", "b", "one")
    sender.send("g", "b", "two")
    sender.reset_channel("g", "b")
    sender.send("g", "b", "three")
    assert sent[-1].seq == 1
    assert sent[-1].epoch == 1

    delivered = []
    receiver = FifoReceiver(lambda g, s, p: delivered.append(p))
    receiver.on_data(sent[0])  # epoch 0, seq 1
    receiver.on_data(sent[2])  # epoch 1, seq 1 -> resets
    assert delivered == ["one", "three"]
    # Old-epoch stragglers are dropped.
    receiver.on_data(sent[1])
    assert delivered == ["one", "three"]
    assert receiver.stale_epoch_drops == 1


def test_abandoned_messages_open_fresh_epoch(sim):
    from repro.groups.multicast import FifoSender

    from repro.net.message import Message

    sent = []

    def lose(recipient, message, size):  # the fabric drops every transmission
        sent.append(message)
        sender.on_ack(Message("a", recipient, message, sim.now, size))

    sender = FifoSender(sim, "a", lose, rto=0.01, max_retries=1, backoff=1.0)
    sender.send("g", "b", "lost")
    sim.run(until=1.0)
    assert sender.abandoned == 1
    sender.send("g", "b", "after")
    assert sent[-1].epoch == 1
    assert sent[-1].seq == 1


def test_recover_secondary_under_concurrent_lazy_updates():
    """Recovery while the lazy publisher is mid-stream: snapshots keep
    flowing during the rejoin and the fresh channel epoch must not let the
    secondary double-apply or miss one."""
    testbed = make_testbed(lui=0.2)
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})
    victim = service.secondaries[0]

    # A dense update stream so every lazy interval carries new state.
    updates(testbed, client, 80, gap=0.05)
    testbed.sim.schedule_at(1.0, testbed.network.crash, victim.name)
    # Recover in the middle of the stream, not after it drains.
    testbed.sim.schedule_at(2.0, service.recover_secondary, victim.name)
    testbed.sim.run(until=12.0)

    reference = service.secondaries[1]
    assert victim.app.value == reference.app.value == 80
    assert victim.my_csn == reference.my_csn == 80
    assert victim.app.history == reference.app.history


def test_recover_secondary_across_sequencer_failover():
    """The sequencer dies while the secondary is still catching up; the
    promoted leader's lazy publisher must finish the resync."""
    testbed = make_testbed(lui=0.5)
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})
    victim = service.secondaries[0]

    updates(testbed, client, 30, gap=0.1)
    testbed.sim.schedule_at(1.0, testbed.network.crash, victim.name)
    testbed.sim.schedule_at(2.5, service.recover_secondary, victim.name)
    # Mid-recovery: the victim has rejoined but cannot have resynced yet
    # (the next lazy round is still pending) when the sequencer dies.
    testbed.sim.schedule_at(2.6, testbed.network.crash, "svc-seq")
    testbed.sim.run(until=20.0)

    assert service.primaries[0].is_sequencer
    assert victim.name in testbed.membership.view_of("svc.secondary")
    # Serving primaries shrink to p2 after p1's promotion; the victim
    # still converges on the full committed history.
    reference = service.primaries[1]
    assert victim.app.value == reference.app.value == 30
    assert victim.my_csn == reference.my_csn
