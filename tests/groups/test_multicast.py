"""Unit tests for reliable FIFO group messaging, including under loss."""

import pytest

from repro.groups.group import GroupEndpoint
from repro.groups.membership import MembershipService
from repro.groups.multicast import FifoReceiver, FifoSender, GroupAckMsg, GroupDataMsg
from repro.net.latency import FixedLatency
from repro.net.network import Network


# ---------------------------------------------------------------------------
# FifoReceiver in isolation
# ---------------------------------------------------------------------------
class _Collector:
    def __init__(self):
        self.delivered = []
        self.acked = []

    def deliver(self, group, sender, payload):
        self.delivered.append((group, sender, payload))

    def ack(self, origin, ack):
        self.acked.append((origin, ack))


def _data(seq, payload=None, group="g", origin="s"):
    return GroupDataMsg(group, origin, seq, payload if payload is not None else seq)


def test_receiver_delivers_in_order():
    col = _Collector()
    receiver = FifoReceiver(col.deliver, col.ack)
    for seq in (1, 2, 3):
        receiver.on_data(_data(seq))
    assert [p for _, _, p in col.delivered] == [1, 2, 3]


def test_receiver_buffers_out_of_order():
    col = _Collector()
    receiver = FifoReceiver(col.deliver, col.ack)
    receiver.on_data(_data(2))
    assert col.delivered == []
    assert receiver.pending_for("g", "s") == 1
    receiver.on_data(_data(1))
    assert [p for _, _, p in col.delivered] == [1, 2]
    assert receiver.reordered == 1


def test_receiver_suppresses_duplicates_but_reacks():
    col = _Collector()
    receiver = FifoReceiver(col.deliver, col.ack)
    receiver.on_data(_data(1))
    receiver.on_data(_data(1))
    assert len(col.delivered) == 1
    assert len(col.acked) == 2  # duplicate still acked (ack may have been lost)
    assert receiver.duplicates == 1


def test_receiver_separates_senders():
    col = _Collector()
    receiver = FifoReceiver(col.deliver, col.ack)
    receiver.on_data(_data(1, "x", origin="s1"))
    receiver.on_data(_data(1, "y", origin="s2"))
    assert len(col.delivered) == 2


def test_receiver_duplicate_in_buffer():
    col = _Collector()
    receiver = FifoReceiver(col.deliver, col.ack)
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


def test_sender_retransmits_until_acked(sim):
    sent = []
    sender = FifoSender(
        sim, "me", lambda r, m, s: sent.append(m), rto=0.1, max_retries=3
    )
    sender.send("g", "a", "x")
    sim.run(until=0.15)
    assert len(sent) == 2  # original + one retransmission
    sender.on_ack(GroupAckMsg("g", "me", 1), "a")
    sim.run(until=10.0)
    assert len(sent) == 2  # ack stopped the retransmissions
    assert sender.unacked == 0


def test_sender_abandons_after_max_retries(sim):
    sent = []
    sender = FifoSender(
        sim, "me", lambda r, m, s: sent.append(m), rto=0.05, max_retries=2, backoff=1.0
    )
    sender.send("g", "a", "x")
    sim.run(until=10.0)
    assert len(sent) == 3  # original + 2 retries
    assert sender.abandoned == 1
    assert sender.unacked == 0


def test_sender_forget_recipient_cancels_retransmits(sim):
    sent = []
    sender = FifoSender(sim, "me", lambda r, m, s: sent.append(m), rto=0.05)
    sender.send("g", "a", "x")
    sender.forget_recipient("g", "a")
    sim.run(until=5.0)
    assert len(sent) == 1
    assert sender.unacked == 0


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
        super().__init__(name, rto=0.02)
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
# Acks name their epoch; deadlines held off until the fabric can lose
# ---------------------------------------------------------------------------
def test_ack_of_an_earlier_epoch_does_not_settle_the_same_seq(sim):
    """``reset_channel`` restarts ``seq`` at 1: an ack still in flight for
    (epoch 0, seq 1) must not count for the unrelated (epoch 1, seq 1)."""
    sent = []
    sender = FifoSender(sim, "me", lambda r, m, s: sent.append(m), rto=0.1)
    sender.send("g", "a", "old")
    sender.reset_channel("g", "a")
    sender.send("g", "a", "new")
    assert (sent[-1].epoch, sent[-1].seq) == (1, 1)
    sender.on_ack(GroupAckMsg("g", "me", 1, epoch=0), "a")
    assert sender.unacked == 1
    sim.run(until=0.15)
    assert [m.payload for m in sent] == ["old", "new", "new"]  # still retransmitted
    sender.on_ack(GroupAckMsg("g", "me", 1, epoch=1), "a")
    assert sender.unacked == 0


def test_receiver_acks_with_the_data_it_was_handed():
    col = _Collector()
    receiver = FifoReceiver(col.deliver, col.ack)
    data = GroupDataMsg("g", "s", 1, "x", epoch=3)
    receiver.on_data(data)
    assert col.acked == [("s", data)]


def test_sender_keeps_no_deadline_for_a_message_the_fabric_guarantees(sim):
    sent = []

    def send_raw(recipient, message, size):
        sent.append(message)
        return True  # it and its ack cannot go missing

    sender = FifoSender(sim, "me", send_raw, rto=0.1)
    first = sender.send("g", "a", "x")
    sender.send("g", "b", "y")
    sender.send("g", "c", "z")
    sim.run(until=5.0)
    assert len(sent) == 3 and sim.events_processed == 0
    # Settling with nothing in the deadline heap: by ack, by eviction, by a
    # fresh epoch.
    sender.on_ack(first, "a")
    sender.forget_recipient("g", "b")
    sender.reset_channel("g", "c")
    assert sender.unacked == 0


def test_expect_loss_gives_the_data_in_flight_its_deadline(sim):
    sent = []
    trusted = [True]

    def send_raw(recipient, message, size):
        sent.append((sim.now, recipient))
        return trusted[0]

    sender = FifoSender(sim, "me", send_raw, rto=0.1, backoff=2.0)
    sim.schedule_at(1.00, sender.send, "g", "a", "early")  # deadline 1.10: past
    sim.schedule_at(1.20, sender.send, "g", "b", "acked")
    sim.schedule_at(1.25, sender.send, "g", "c", "late")  # deadline 1.35
    sim.run(until=1.3)
    sender.on_ack(GroupAckMsg("g", "me", 1), "b")
    trusted[0] = False
    sender.expect_loss()
    sender.expect_loss()  # idempotent
    sim.run(until=1.5)
    # The overdue one fires at once (clamped to now), then backs off from
    # there; the other on its own transmission's grid; the acked one never.
    assert sent[3:] == [(1.3, "a"), (1.35, "c"), (1.5, "a")]
    assert sender.retransmissions == 3 and sender.unacked == 2
