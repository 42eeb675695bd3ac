"""Lazy acks: in a fault-free fabric a group message is settled at its sender
the instant it is delivered and no ack travels; the first fault switches to
acks on the wire and gives the data in flight its retransmit deadline.

Every scenario runs twice where it matters: on a fabric told to expect
faults at t = 0, which acks every message with a message and arms a
retransmit timer for it throughout (the code before lazy acks existed), and
on one left fault-free.  What the members are handed must not depend on
which — with one known exception, DESIGN §8 *First-fault ties*: under loss
or churn every send draws from ``net.loss`` or ``net.churn``, and where the
first fault makes the twins send at one instant in another order (a chain
resumed at the fault runs after events the wired twin's ran before), or
makes only the wired twin beat (a tick at the fault's very instant), the
variates go to other messages.  From there the twins are two different
lossy runs.
"""

from collections import Counter, defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.groups.group import GroupEndpoint
from repro.groups.membership import MembershipService
from repro.groups.multicast import GroupAckMsg, GroupDataMsg
from repro.net.latency import FixedLatency, LanLatency, WanLatency
from repro.net.network import LinkChurn, Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

MEMBERS = ("a", "b", "c")
RTO, BACKOFF = 0.05, 1.5


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
        self.sent = []  # (time, sender, recipient, payload type), every send

    def send(self, sender, recipient, payload, size_bytes=256):
        self.sent.append((self.sim.now, sender, recipient, type(payload).__name__))
        if isinstance(payload, GroupAckMsg):
            self.acks.append((self.sim.now, sender, recipient))
        elif isinstance(payload, GroupDataMsg):
            self.data.append((self.sim.now, sender, recipient, payload))
        return super().send(sender, recipient, payload, size_bytes)

    def transmissions(self):
        """``{(sender, recipient, epoch, seq): [time of every transmission]}``."""
        out = defaultdict(list)
        for at, sender, recipient, message in self.data:
            out[sender, recipient, message.epoch, message.seq].append(at)
        return out


class Member(GroupEndpoint):
    def __init__(self, name):
        super().__init__(name, rto=RTO)
        self.got = []  # (group, sender, payload), as handed over
        self.settled_at_delivery = set()  # (self, recipient, epoch, seq)

    def on_group_message(self, group, sender, payload):
        self.got.append((group, sender, payload))

    def attached(self, network, host):
        super().attached(network, host)
        on_ack = self.fifo_sender.on_ack

        def spy(ack, from_member):
            # Settled at delivery: the receiver hands over the data itself.
            if isinstance(ack, GroupDataMsg):
                self.settled_at_delivery.add(
                    (self.name, from_member, ack.epoch, ack.seq)
                )
            on_ack(ack, from_member)

        self.fifo_sender.on_ack = spy


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
    assert len(lazy.members["a"].settled_at_delivery) == 1000
    # One variate per message from the data's link stream and one from the
    # ack's, sent or not: the streams are where the wired twin left them.
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
    wired, lazy = twins(latency=WanLatency())
    for group in (wired, lazy):
        for i in range(50):
            group.sim.schedule_at(i * 0.03, group.members["a"].gmcast, "g", i)
        group.sim.run(until=10.0)
        assert group.unacked() == 0
    assert lazy.network.fault_free
    assert lazy.retransmissions() == wired.retransmissions() > 0
    assert lazy.network.acks == wired.network.acks
    assert lazy.network.data == wired.network.data
    assert lazy.members["a"].settled_at_delivery == set()
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


def test_rewiring_a_link_after_the_first_transmit_arms_the_data_in_flight():
    group = Group(expect_faults=False)
    a = group.members["a"]
    group.sim.schedule_at(1.0, a.gsend, "g", "b", "x")
    group.sim.run(until=1.001)
    assert a.fifo_sender.unacked == 1 and group.sim.retransmit_timers == 0
    group.network.set_link("a", "b", FixedLatency(0.2))
    assert not group.network.fault_free
    assert group.sim.retransmit_timers == 1
    assert a.fifo_sender._timer.time == 1.0 + RTO
    # The message left before the link changed: it lands, and is acked on
    # the wire now.
    group.sim.run(until=1.01)
    assert group.network.acks == [(1.002, "b", "a")]
    assert a.fifo_sender.unacked == 0 and a.fifo_sender._timer is None
    assert a.settled_at_delivery == set()


def test_fabric_that_expects_faults_before_the_first_transmit_is_never_trusted():
    """Judged at the first transmit, not on attach: an injector built after
    the endpoints but before the clock starts is seen."""
    group = Group(expect_faults=False)
    group.network.expect_faults()
    group.members["a"].gmcast("g", "x")
    group.sim.run(until=1.0)
    assert len(group.network.acks) == 2 and group.sim.retransmit_timers == 1
    assert group.unacked() == 0


# ---------------------------------------------------------------------------
# Both fabrics side by side across the first fault
# ---------------------------------------------------------------------------
#: Distinct one-way delays, so no two arrivals tie and no draw decides an
#: order: what differs between the twins is then only what the fabric's
#: state made differ.
LINKS = {
    ("a", "b"): 0.0020, ("b", "a"): 0.0023, ("a", "c"): 0.0026,
    ("c", "a"): 0.0029, ("b", "c"): 0.0032, ("c", "b"): 0.0035,
}
HEAL_AFTER = 0.4  # inside suspect_timeout: the view never changes


def _crash_c(net):
    net.crash("c")
    return lambda: net.recover("c")


def _partition_c(net):
    net.partition({"a", "b"}, {"c"})
    return net.heal_partitions


def _lose_a_third(net):
    net.drop_probability = 0.3

    def heal():
        net.drop_probability = 0.0

    return heal


def _churn(net):
    net.set_churn(
        "*", "*", LinkChurn(0.3, 0.3, extra_delay=(0.001, 0.03))
    )
    return net.clear_churn


def _degrade_a_to_b(net):
    net.degrade_link("a", "b", factor=40.0)  # 80 ms one way: outside rto
    return lambda: net.restore_link("a", "b")


FAULTS = {
    f.__name__.lstrip("_"): f
    for f in (_crash_c, _partition_c, _lose_a_third, _churn, _degrade_a_to_b)
}

millis = st.integers(min_value=0, max_value=2000)
a_send = st.tuples(
    millis,
    st.sampled_from(MEMBERS),
    st.sampled_from((None,) + MEMBERS),  # None: gmcast to the view
)


def _run(expect_faults, sends, fault, fault_ms):
    group = Group(expect_faults, links=LINKS)
    net, sim = group.network, group.sim
    # Payloads number the sends in time order (the sort is stable, as is
    # the kernel among events of one instant).
    for i, (at_ms, sender, target) in enumerate(sorted(sends, key=lambda s: s[0])):
        member = group.members[sender]
        if target is None or target == sender:
            sim.schedule_at(at_ms / 1000, member.gmcast, "g", i)
        else:
            sim.schedule_at(at_ms / 1000, member.gsend, "g", target, i)
    state = {}

    def inject():
        state["outstanding"] = {
            (name, e.recipient, e.message.epoch, e.message.seq): e.sent_at
            for name, m in group.members.items()
            for e in m.fifo_sender._outstanding.values()
        }
        heal = FAULTS[fault](net)
        sim.schedule(HEAL_AFTER, heal)

    sim.schedule_at(fault_ms / 1000, inject)
    sim.run(until=12.0)
    return group, state["outstanding"]


#: Faults whose draws come from a stream the group traffic also draws from
#: (``net.loss``, ``net.churn``).
SHARED_STREAM_FAULTS = {"lose_a_third", "churn"}


def _twins(sends, fault, fault_ms):
    (wired, _), (lazy, outstanding) = (
        _run(expect_faults, sends, fault, fault_ms) for expect_faults in (True, False)
    )
    return wired, lazy, outstanding


def _assert_twins_agree(wired, lazy, outstanding):
    """Every member is handed the same messages in the same order; each
    message is sent when the wired twin sent it, except that a message
    settled at delivery is never re-sent; what was in flight at the fault
    is retransmitted on its own grid."""
    for name in MEMBERS:
        got = lazy.members[name].got
        assert got == wired.members[name].got
        for sender in MEMBERS:  # FIFO: payloads number the sends
            payloads = [p for _, s, p in got if s == sender]
            assert payloads == sorted(payloads)
    assert lazy.unacked() == wired.unacked() == 0

    sent_wired = wired.network.transmissions()
    sent_lazy = lazy.network.transmissions()
    assert set(sent_lazy) == set(sent_wired)
    settled_at_delivery = set().union(
        *(m.settled_at_delivery for m in lazy.members.values())
    )
    for key, times in sent_lazy.items():
        if key in settled_at_delivery:
            # Sent once, never again; the wired twin at most re-sent it.
            assert len(times) == 1
            assert sent_wired[key][0] == times[0]
        else:
            assert times == sent_wired[key]
    # What was in flight at the fault had no deadline until then, and is
    # retransmitted on the grid its transmission would have armed.
    for key, sent_at in outstanding.items():
        assert sent_at == sent_lazy[key][0]  # held off, never re-sent yet
        expected = sent_at
        for k, at in enumerate(sent_lazy[key][1:]):
            expected += RTO * BACKOFF**k
            assert at == pytest.approx(expected, abs=1e-9)


def _sends_diverge_as_known(wired, lazy, fault_at):
    """Whether the twins, from the fault on, send differently.  Asserts
    that the first difference is a first-fault tie: one instant whose sends
    come in another order, plus, at the fault's instant, beats that only
    the wired twin sends."""
    w = [s for s in wired.network.sent if s[0] >= fault_at]
    z = [s for s in lazy.network.sent if s[0] >= fault_at]
    if w == z:
        return False
    i = 0
    while i < min(len(w), len(z)) and w[i] == z[i]:
        i += 1
    at = min(sent[i][0] for sent in (w, z) if i < len(sent))
    only_wired = Counter(s for s in w if s[0] == at)
    only_wired.subtract(s for s in z if s[0] == at)
    assert min(only_wired.values()) >= 0  # the lazy twin sends nothing more
    for _, _, _, kind in +only_wired:
        assert at == fault_at and kind == "HeartbeatMsg"
    return True


def _assert_every_member_is_handed_every_message(wired, lazy):
    """What still holds between two different lossy runs: each member is
    handed the same messages, FIFO from each sender, and nothing is left
    unsettled."""
    for name in MEMBERS:
        got = lazy.members[name].got
        assert sorted(got) == sorted(wired.members[name].got)
        for sender in MEMBERS:
            payloads = [p for _, s, p in got if s == sender]
            assert payloads == sorted(payloads)
    assert lazy.unacked() == wired.unacked() == 0


@settings(max_examples=60, deadline=None)
@given(
    sends=st.lists(a_send, min_size=1, max_size=25),
    fault=st.sampled_from(sorted(FAULTS)),
    fault_ms=millis,
)
# Data in flight a -> c (2.6 ms) when c is cut off / crashes.
@example(sends=[(100, "a", "c"), (101, "a", None)], fault="partition_c", fault_ms=102)
@example(sends=[(100, "a", "c"), (500, "c", "a")], fault="crash_c", fault_ms=101)
# The ack c -> a (2.9 ms) in flight: the wired twin loses it, the lazy twin
# had counted it at delivery.
@example(sends=[(100, "a", "c")], fault="partition_c", fault_ms=104)
@example(sends=[(0, "b", None)] * 5, fault="lose_a_third", fault_ms=1)
@example(sends=[(10 * i, "a", "b") for i in range(20)], fault="degrade_a_to_b", fault_ms=95)
@example(sends=[(7 * i, "c", None) for i in range(20)], fault="churn", fault_ms=30)
# A beat tick at the fault's instant, a -> b landing then: exact where the
# fault draws no shared stream (FIRST_FAULT_TIES below where it does).
@example(sends=[(498, "a", None)], fault="crash_c", fault_ms=500)
def test_first_fault_mid_traffic_hands_every_member_the_same_messages(
    sends, fault, fault_ms
):
    """A random schedule of ``gsend``/``gmcast`` and one fault at a random
    instant, healed 0.4 s later: whether the fabric expected faults from
    t = 0 or was fault-free until then, every member is handed the same
    messages in the same order.

    The one thing the twins may do differently: an ack that was in flight
    at the fault and got lost makes the wired twin retransmit a message
    that had been delivered (the duplicate is suppressed); the lazy twin
    settled that message when it was delivered.

    Under loss or churn a first-fault tie (see the module docstring) is
    the known exception: the test checks that a divergence is one, and
    then holds the twins only to what two lossy runs share.
    """
    wired, lazy, outstanding = _twins(sends, fault, fault_ms)
    if fault in SHARED_STREAM_FAULTS and _sends_diverge_as_known(
        wired, lazy, fault_ms / 1000
    ):
        _assert_every_member_is_handed_every_message(wired, lazy)
    else:
        _assert_twins_agree(wired, lazy, outstanding)


#: First-fault ties under loss, one per way the twins come to draw
#: ``net.loss`` for other messages (found by the test above).
FIRST_FAULT_TIES = {
    # Loss from 500 ms, a beat tick, with a -> b landing then: the wired
    # twin's three beats draw ahead of b's ack; the lazy twin counts them
    # as past and draws for the ack alone.
    "beat_due_at_the_fault": ([(498, "a", None)], 500),
    # Loss from 748 ms; a -> b, sent then, lands on the 750 ms tick.  The
    # wired twin's beats, armed at 500 ms, draw before b's ack; the lazy
    # twin re-armed them at 748 ms, after that arrival.
    "first_resumed_beat": ([(747, "a", None), (747, "b", "a"), (748, "a", "b")], 748),
    # Loss from 1251 ms; c and a both have data in flight due at 1299 ms.
    # The wired twin retransmits in the order its timers were armed (a, c),
    # the lazy twin in the order the senders subscribed to the first fault.
    "retransmits_of_the_data_in_flight": (
        [(1243, "c", "b"), (1249, "c", None), (1249, "a", None), (1260, "b", "b")],
        1251,
    ),
}


@pytest.mark.parametrize("tie", sorted(FIRST_FAULT_TIES))
def test_first_fault_tie_is_the_known_divergence(tie):
    sends, fault_ms = FIRST_FAULT_TIES[tie]
    wired, lazy, _ = _twins(sends, "lose_a_third", fault_ms)
    assert _sends_diverge_as_known(wired, lazy, fault_ms / 1000)
    _assert_every_member_is_handed_every_message(wired, lazy)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="DESIGN §8 First-fault ties: the twins draw net.loss for other messages",
)
@pytest.mark.parametrize("tie", sorted(FIRST_FAULT_TIES))
def test_first_fault_tie_leaves_the_twins_alike(tie):
    sends, fault_ms = FIRST_FAULT_TIES[tie]
    _assert_twins_agree(*_twins(sends, "lose_a_third", fault_ms))


def test_ack_in_flight_at_the_first_fault_is_already_counted():
    """The one difference, in the small: a -> c lands at 102.6 ms, its ack
    would land at 105.5 ms, c is cut off at 104 ms.  The wired twin loses
    the ack and re-sends a delivered message until the cut heals (c drops
    the duplicate); the lazy twin settled it at 102.6 ms."""
    (wired, _), (lazy, outstanding) = (
        _run(expect_faults, [(100, "a", "c")], "partition_c", 104)
        for expect_faults in (True, False)
    )
    key = ("a", "c", 0, 1)
    assert outstanding == {}
    assert lazy.network.transmissions()[key] == [0.1]
    assert len(wired.network.transmissions()[key]) == 5  # 150, 225, 337, 506 ms
    assert wired.members["c"].fifo_receiver.duplicates == 1
    assert lazy.members["c"].fifo_receiver.duplicates == 0
    assert wired.members["c"].got == lazy.members["c"].got == [("g", "a", 0)]


def test_data_in_flight_at_the_first_fault_is_retransmitted_until_it_lands():
    """Cut off at 102 ms instead: the data itself is lost, in both twins,
    and re-sent at ``sent_at + rto * backoff^k`` until the cut heals."""
    (wired, _), (lazy, outstanding) = (
        _run(expect_faults, [(100, "a", "c")], "partition_c", 102)
        for expect_faults in (True, False)
    )
    key = ("a", "c", 0, 1)
    assert outstanding == {key: 0.1}
    assert lazy.network.transmissions()[key] == wired.network.transmissions()[key]
    assert lazy.network.transmissions()[key] == pytest.approx(
        [0.1, 0.15, 0.225, 0.3375, 0.50625]
    )
    assert lazy.members["c"].got == [("g", "a", 0)]
    assert lazy.retransmissions() == 4 and lazy.unacked() == 0
