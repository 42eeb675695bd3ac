"""Lazy acks: on a channel the fault-free fabric trusts, a group message keeps
no books at its sender and no ack travels.

Every scenario runs twice where it matters: on a fabric told to expect
faults at t = 0, which acks every message with a message and arms a
retransmit timer for it throughout (the code before lazy acks existed), and
on one left fault-free.  What the members are handed must not depend on
which.
"""

from repro.groups.group import GroupEndpoint
from repro.groups.membership import MembershipService
from repro.groups.multicast import GroupAckMsg, GroupDataMsg
from repro.net.latency import FixedLatency, LanLatency, LatencyModel
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import Normal, RngRegistry

MEMBERS = ("a", "b", "c")


class SpySimulator(Simulator):
    """Counts the retransmit timers armed."""

    def __init__(self):
        super().__init__()
        self.retransmit_timers = 0

    def schedule_at(self, time, callback, *args, priority=0):
        if getattr(callback, "__name__", "") == "_on_timer":
            self.retransmit_timers += 1
        return super().schedule_at(time, callback, *args, priority=priority)


class SpyNetwork(Network):
    """Records every group message put on the wire, acks and data apart."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.acks = []  # (time, sender, recipient)
        self.data = []  # (time, sender, recipient, GroupDataMsg)

    def send(self, sender, recipient, payload, size_bytes=256):
        if isinstance(payload, GroupAckMsg):
            self.acks.append((self.sim.now, sender, recipient))
        elif isinstance(payload, GroupDataMsg):
            self.data.append((self.sim.now, sender, recipient, payload))
        return super().send(sender, recipient, payload, size_bytes)


class Member(GroupEndpoint):
    def __init__(self, name):
        super().__init__(name)
        self.got = []  # (group, sender, payload), as handed over
        self.unacked_after_send = []  # fifo_sender.unacked right after each send

    def on_group_message(self, group, sender, payload):
        self.got.append((group, sender, payload))

    def gsend(self, group, member, payload, size_bytes=256):
        super().gsend(group, member, payload, size_bytes)
        self.unacked_after_send.append(self.fifo_sender.unacked)

    def gmcast(self, group, payload, size_bytes=256, only=None):
        sent = super().gmcast(group, payload, size_bytes, only)
        self.unacked_after_send.append(self.fifo_sender.unacked)
        return sent


class Group:
    """Three members of one group on one fabric."""

    def __init__(self, expect_faults, latency=None, links=None):
        self.sim = SpySimulator()
        self.rng = RngRegistry(7)
        self.network = SpyNetwork(self.sim, self.rng, latency or FixedLatency(0.002))
        if expect_faults:
            self.network.expect_faults()
        for (sender, recipient), delay in (links or {}).items():
            self.network.set_link(sender, recipient, FixedLatency(delay))
        service = MembershipService()
        self.network.attach(service)
        self.members = {name: Member(name) for name in MEMBERS}
        for name, member in self.members.items():
            self.network.attach(member)
            service.register("g", name)
            member.assume_membership("g")
        for member in self.members.values():
            member.adopt_view(service.view_of("g"))

    def unacked(self):
        return sum(m.fifo_sender.unacked for m in self.members.values())

    def retransmissions(self):
        return sum(m.fifo_sender.retransmissions for m in self.members.values())


def twins(**kwargs):
    return Group(expect_faults=True, **kwargs), Group(expect_faults=False, **kwargs)


# ---------------------------------------------------------------------------
# What is not done while the fabric is fault-free
# ---------------------------------------------------------------------------
def test_fault_free_fabric_sends_no_ack_arms_no_timer_and_keeps_every_draw():
    wired, lazy = twins(latency=LanLatency())
    for group in (wired, lazy):
        for i in range(1000):
            group.sim.schedule_at(
                i * 0.01, group.members["a"].gsend, "g", "b", i
            )
        group.sim.run(until=11.0)
        assert group.members["b"].got == [("g", "a", i) for i in range(1000)]
        assert group.unacked() == 0 and group.retransmissions() == 0

    assert len(wired.network.acks) == 1000
    assert wired.sim.retransmit_timers == 1000
    assert lazy.network.acks == []
    assert lazy.sim.retransmit_timers == 0
    assert lazy.network.fault_free
    # The wired twin keeps each message until its ack; the lazy one keeps none.
    assert wired.members["a"].unacked_after_send == [1] * 1000
    assert lazy.members["a"].unacked_after_send == [0] * 1000
    # One variate per message from the data's link stream and one from the
    # ack's, sent or not: the streams are where the wired twin left them.
    lazy.network.settle_draws()
    for link in ("net.link.a->b", "net.link.b->a"):
        assert lazy.rng.stream(link).getstate() == wired.rng.stream(link).getstate()
    assert (
        lazy.rng.stream("net.link.b->a").getstate()
        != RngRegistry(7).stream("net.link.b->a").getstate()
    )


def test_channel_whose_round_trip_is_not_inside_rto_acks_on_the_wire():
    """Over a WAN (round trip ~100 ms against ``rto`` = 50 ms) a fault-free
    run genuinely retransmits: the channel is not taken on trust, and the
    wire carries what it carried before lazy acks existed."""
    wan = LatencyModel(Normal(0.05, 0.015, floor=0.02), bandwidth_bytes_per_s=10e6 / 8)
    wired, lazy = twins(latency=wan)
    for group in (wired, lazy):
        for i in range(50):
            group.sim.schedule_at(i * 0.03, group.members["a"].gmcast, "g", i)
        group.sim.run(until=10.0)
        assert group.unacked() == 0
    assert lazy.network.fault_free
    assert lazy.retransmissions() == wired.retransmissions() > 0
    assert lazy.network.acks == wired.network.acks
    assert lazy.network.data == wired.network.data
    assert (
        lazy.members["a"].unacked_after_send
        == wired.members["a"].unacked_after_send
    )
    assert min(lazy.members["a"].unacked_after_send) >= 2
    for name in MEMBERS:
        assert lazy.members[name].got == wired.members[name].got


def test_slow_channel_is_its_own_business():
    """One pair behind a slow link acks on the wire; the others stay lazy."""
    slow = {("a", "c"): 0.02, ("c", "a"): 0.02}
    group = Group(expect_faults=False, links=slow)
    for i in range(10):
        group.sim.schedule_at(i * 0.1, group.members["a"].gmcast, "g", i)
    group.sim.run(until=3.0)
    assert group.network.fault_free
    assert {(s, r) for _, s, r in group.network.acks} == {("c", "a")}
    assert len(group.network.acks) == 10
    assert group.unacked() == 0


def test_message_to_a_name_nobody_answers_to_keeps_its_deadline():
    """Settling at delivery takes a receiver: to an unattached name the
    message is retransmitted, as ever, in a fabric that stays fault-free."""
    group = Group(expect_faults=False)
    a = group.members["a"]
    a.gsend("g", "ghost", "x")
    group.sim.run(until=1.0)
    assert a.fifo_sender.retransmissions > 0 and a.fifo_sender.unacked == 1
    assert group.network.fault_free


def test_fabric_that_expects_faults_before_the_first_transmit_is_never_trusted():
    """Judged at the first transmit, not on attach: an injector built after
    the endpoints but before the clock starts is seen."""
    group = Group(expect_faults=False)
    group.network.expect_faults()
    group.members["a"].gmcast("g", "x")
    group.sim.run(until=1.0)
    assert len(group.network.acks) == 2 and group.sim.retransmit_timers == 1
    assert group.unacked() == 0


def test_a_verdict_does_not_outlive_expect_faults():
    """A message sent while the fabric is still fault-free rides on trust;
    once the fabric expects faults the next one is acked on the wire and
    keeps a deadline.  Kills a verdict cached across ``expect_faults()``,
    which would send the second message on the first one's trust."""
    group = Group(expect_faults=False)
    a = group.members["a"]
    a.gsend("g", "b", "before")
    assert a.fifo_sender.unacked == 0 and group.sim.retransmit_timers == 0
    group.network.expect_faults()
    a.gsend("g", "b", "after")
    assert a.unacked_after_send == [0, 1] and group.sim.retransmit_timers == 1
    group.sim.run(until=1.0)
    # Both arrive once the fabric expects faults, so both are acked.
    assert [(s, r) for _, s, r in group.network.acks] == [("b", "a")] * 2
    assert group.members["b"].got == [("g", "a", "before"), ("g", "a", "after")]
    assert group.unacked() == 0 and group.retransmissions() == 0
