"""Unit tests for reliable FIFO group messaging, including under loss."""

import pytest

from repro.groups.group import GroupEndpoint
from repro.groups.membership import MembershipService
from repro.groups.multicast import FifoReceiver, FifoSender, GroupDataMsg
from repro.net.latency import FixedLatency
from repro.net.message import Message
from repro.net.network import Network


# ---------------------------------------------------------------------------
# FifoReceiver in isolation
# ---------------------------------------------------------------------------
class _Collector:
    def __init__(self):
        self.delivered = []

    def deliver(self, group, sender, payload):
        self.delivered.append((group, sender, payload))


def _data(seq, payload=None, group="g", origin="s"):
    return GroupDataMsg(group, origin, seq, payload if payload is not None else seq)


def test_receiver_delivers_in_order():
    col = _Collector()
    receiver = FifoReceiver(col.deliver)
    for seq in (1, 2, 3):
        receiver.on_data(_data(seq))
    assert [p for _, _, p in col.delivered] == [1, 2, 3]


def test_receiver_buffers_out_of_order():
    col = _Collector()
    receiver = FifoReceiver(col.deliver)
    receiver.on_data(_data(2))
    assert col.delivered == []
    assert receiver.pending_for("g", "s") == 1
    receiver.on_data(_data(1))
    assert [p for _, _, p in col.delivered] == [1, 2]
    assert receiver.reordered == 1


def test_receiver_suppresses_duplicates():
    col = _Collector()
    receiver = FifoReceiver(col.deliver)
    receiver.on_data(_data(1))
    receiver.on_data(_data(1))
    assert len(col.delivered) == 1
    assert receiver.duplicates == 1


def test_receiver_separates_senders():
    col = _Collector()
    receiver = FifoReceiver(col.deliver)
    receiver.on_data(_data(1, "x", origin="s1"))
    receiver.on_data(_data(1, "y", origin="s2"))
    assert len(col.delivered) == 2


def test_receiver_duplicate_in_buffer():
    col = _Collector()
    receiver = FifoReceiver(col.deliver)
    receiver.on_data(_data(3))
    receiver.on_data(_data(3))
    assert receiver.duplicates == 1


# ---------------------------------------------------------------------------
# FifoSender in isolation
# ---------------------------------------------------------------------------
def test_sender_sequences_per_recipient(sim):
    sent = []
    sender = FifoSender(sim, "me", lambda r, m, s: sent.append((r, m)))
    sender.send("g", "a", "x")
    sender.send("g", "a", "y")
    sender.send("g", "b", "z")
    seqs = [(r, m.seq) for r, m in sent]
    assert seqs == [("a", 1), ("a", 2), ("b", 1)]


class LossyLink:
    """A ``send_raw`` that drops the transmissions it is told to and hands
    each back to the sender as the fabric does."""

    def __init__(self, sim, drop=lambda message: True):
        self.sim, self.drop, self.sent = sim, drop, []
        self.sender = None

    def __call__(self, recipient, message, size):
        wire = Message("me", recipient, message, self.sim.now, size)
        self.sent.append(wire)
        if self.drop(wire):
            self.sender.on_ack(wire)
        return wire


def lossy_sender(sim, drop=lambda message: True, **kwargs):
    link = LossyLink(sim, drop)
    link.sender = FifoSender(sim, "me", link, **kwargs)
    return link.sender, link.sent


def test_sender_resends_a_dropped_message_at_its_deadline(sim):
    """The k-th resend goes out ``rto · backoff**k`` after the transmission
    before it was sent, as the retransmission timer used to fire."""
    sender, sent = lossy_sender(sim, lambda wire: len(sent) <= 3, rto=0.1)
    sender.send("g", "a", "x")
    sim.run(until=10.0)
    assert [wire.sent_at for wire in sent] == pytest.approx([0.0, 0.1, 0.25, 0.475])
    assert [wire.payload.attempt for wire in sent] == [0, 1, 2, 3]
    assert {(wire.payload.seq, wire.payload.epoch) for wire in sent} == {(1, 0)}
    assert sender.retransmissions == 3


def test_sender_abandons_after_max_retries(sim):
    sender, sent = lossy_sender(sim, rto=0.05, max_retries=2, backoff=1.0)
    sender.send("g", "a", "x")
    sim.run(until=10.0)
    assert len(sent) == 3  # original + 2 retries
    assert sender.abandoned == 1
    # Giving up opened a fresh epoch: the next message starts it at seq 1.
    assert (sender.send("g", "a", "y").epoch, sent[-1].payload.seq) == (1, 1)


def test_sender_skips_resends_into_a_closed_epoch(sim):
    """A member evicted (or rejoined) while its message waited to be resent
    gets no resend of it."""
    sender, sent = lossy_sender(sim, rto=0.05)
    sender.send("g", "a", "x")
    sender.reset_channel("g", "a")
    sim.run(until=5.0)
    assert len(sent) == 1 and sender.retransmissions == 0


def test_send_to_all_skips_self(sim):
    sent = []
    sender = FifoSender(sim, "me", lambda r, m, s: sent.append(r))
    sender.send_to_all("g", ["me", "a", "b"], "x")
    assert sent == ["a", "b"]


def test_sender_validation(sim):
    with pytest.raises(ValueError):
        FifoSender(sim, "me", lambda r, m, s: None, rto=0.0)
    with pytest.raises(ValueError):
        FifoSender(sim, "me", lambda r, m, s: None, max_retries=-1)


# ---------------------------------------------------------------------------
# End-to-end over a lossy network
# ---------------------------------------------------------------------------
class Echo(GroupEndpoint):
    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def on_group_message(self, group, sender, payload):
        self.got.append(payload)


def _build(sim, rng, drop):
    network = Network(sim, rng, FixedLatency(0.001), drop_probability=drop)
    service = MembershipService()
    network.attach(service)
    nodes = [Echo(n) for n in ("a", "b", "c")]
    for node in nodes:
        network.attach(node)
        service.register("g", node.name)
        node.assume_membership("g")
    for node in nodes:
        node.adopt_view(service.view_of("g"))
    return network, nodes


def test_gmcast_reaches_all_members(sim, rng):
    _, (a, b, c) = _build(sim, rng, drop=0.0)
    count = a.gmcast("g", "hello")
    sim.run(until=1.0)
    assert count == 2
    assert b.got == ["hello"] and c.got == ["hello"]
    assert a.got == []  # no self-delivery


def test_gmcast_fifo_order_preserved(sim, rng):
    _, (a, b, _) = _build(sim, rng, drop=0.0)
    for i in range(20):
        a.gmcast("g", i)
    sim.run(until=2.0)
    assert b.got == list(range(20))


def test_reliable_delivery_under_heavy_loss(sim, rng):
    """30 % drop: retransmission must still deliver everything, in order."""
    _, (a, b, c) = _build(sim, rng, drop=0.3)
    for i in range(30):
        a.gmcast("g", i)
    sim.run(until=30.0)
    assert b.got == list(range(30))
    assert c.got == list(range(30))
    assert a.fifo_sender.retransmissions > 0


def test_gsend_unicast(sim, rng):
    _, (a, b, c) = _build(sim, rng, drop=0.0)
    a.gsend("g", "b", "solo")
    sim.run(until=1.0)
    assert b.got == ["solo"] and c.got == []


def test_two_senders_interleaved_fifo(sim, rng):
    _, (a, b, c) = _build(sim, rng, drop=0.2)
    for i in range(10):
        a.gmcast("g", f"a{i}")
        c.gmcast("g", f"c{i}")
    sim.run(until=30.0)
    from_a = [p for p in b.got if p.startswith("a")]
    from_c = [p for p in b.got if p.startswith("c")]
    assert from_a == [f"a{i}" for i in range(10)]
    assert from_c == [f"c{i}" for i in range(10)]


# ---------------------------------------------------------------------------
# A delivered message leaves nothing behind
# ---------------------------------------------------------------------------
def test_sender_keeps_no_deadline_for_a_message_the_fabric_guarantees(sim):
    sent = []
    sender = FifoSender(sim, "me", lambda r, m, s: sent.append(m), rto=0.1)
    sender.send("g", "a", "x")
    sender.send("g", "b", "y")
    sim.run(until=5.0)
    assert len(sent) == 2 and sim.events_processed == 0 and not sim.pending()
    sender.reset_channel("g", "a")
    assert sender.send("g", "a", "z").epoch == 1
