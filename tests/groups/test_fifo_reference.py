"""The FIFO channel halves against the bookkeeping they replaced.

``FifoSender`` and ``FifoReceiver`` keep one record per direction of each
channel (the sender's last seq and epoch; the receiver's epoch, next
expected seq and out-of-order buffer), and hand an in-order arrival with an
empty buffer straight over.  Before that, each kept one dict per field,
keyed by the same ``(group, peer)`` tuple, and every arrival went through
the buffer.  ``ReferenceSender`` and ``ReferenceReceiver`` below are those
halves, kept verbatim as the reference (less the first-fault conversion,
gone from both: a channel's verdict on trust holds for the whole run; and
a message on a trusted channel is recorded by neither): hypothesis runs
random epochs, seqs, duplicates, reorders,
stale epochs, acks, ``reset_channel``, ``forget_recipient`` and
retransmissions through both versions, and requires the same deliveries,
the same ``GroupDataMsg`` stream on the wire and the same counters after
every step.

Mutants this kills: a fast path that ignores a non-empty buffer (it hands
seq 1 over and strands seq 2), a fast path that skips the epoch check (it
hands over a stale or a fresh epoch's message as if it were the current
one's), and a ``reset_channel`` that keeps the seq (the fresh epoch does
not restart at 1).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.groups.multicast import (
    FifoReceiver,
    FifoSender,
    GroupAckMsg,
    GroupDataMsg,
)
from repro.sim.kernel import Event, Simulator

GROUPS = ("g", "h")
PEERS = ("a", "b")
RTO, MAX_RETRIES = 0.05, 2


# ---------------------------------------------------------------------------
# The reference: the per-field bookkeeping, verbatim
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class _Outstanding:
    recipient: str
    message: GroupDataMsg
    size_bytes: int
    retries: int = 0
    settled: bool = False


class ReferenceSender:
    def __init__(
        self,
        sim: Simulator,
        owner: str,
        send_raw: Callable[[str, Any, int], Optional[bool]],
        rto: float = 0.05,
        max_retries: int = 20,
        backoff: float = 1.5,
    ) -> None:
        self.sim = sim
        self.owner = owner
        self._send_raw = send_raw
        self.rto = rto
        self.max_retries = max_retries
        self.backoff = backoff
        self._next_seq: dict[tuple[str, str], int] = {}
        self._epochs: dict[tuple[str, str], int] = {}
        self._outstanding: dict[tuple[str, str, int], _Outstanding] = {}
        self._due: list[tuple[float, int, _Outstanding]] = []
        self._transmits = itertools.count()
        self._timer: Optional[Event] = None
        self.retransmissions = 0
        self.abandoned = 0

    def send(self, group, recipient, payload, size_bytes=256):
        key = (group, recipient)
        seq = self._next_seq.get(key, 0) + 1
        self._next_seq[key] = seq
        message = GroupDataMsg(
            group, self.owner, seq, payload, self._epochs.get(key, 0)
        )
        entry = _Outstanding(recipient, message, size_bytes)
        if self._transmit(entry):
            self._outstanding[(group, recipient, seq)] = entry
        return message

    def send_to_all(self, group, recipients: Iterable[str], payload, size_bytes=256):
        sent = 0
        for recipient in recipients:
            if recipient != self.owner:
                self.send(group, recipient, payload, size_bytes)
                sent += 1
        return sent

    def on_ack(self, ack, from_member):
        key = (ack.group, from_member, ack.seq)
        entry = self._outstanding.get(key)
        if entry is not None and entry.message.epoch == ack.epoch:
            del self._outstanding[key]
            self._settle(entry)

    def reset_channel(self, group, recipient):
        self.forget_recipient(group, recipient)
        key = (group, recipient)
        self._epochs[key] = self._epochs.get(key, 0) + 1
        self._next_seq[key] = 0

    def forget_recipient(self, group, recipient):
        stale = [
            key
            for key in self._outstanding
            if key[0] == group and key[1] == recipient
        ]
        for key in stale:
            self._settle(self._outstanding.pop(key))

    @property
    def unacked(self):
        return len(self._outstanding)

    def _transmit(self, entry):
        """Send ``entry``; true when it keeps a deadline (an untrusted channel)."""
        if self._send_raw(entry.recipient, entry.message, entry.size_bytes):
            return False
        deadline = self.sim.now + self.rto * (self.backoff**entry.retries)
        heapq.heappush(self._due, (deadline, next(self._transmits), entry))
        if self._due[0][2] is entry:
            self._arm()
        return True

    def _settle(self, entry):
        entry.settled = True
        if self._due and self._due[0][2] is entry:
            self._arm()

    def _arm(self):
        due = self._due
        while due and due[0][2].settled:
            heapq.heappop(due)
        timer = self._timer
        if timer is not None:
            if due and due[0][0] == timer.time:
                return
            timer.cancel()
        self._timer = (
            self.sim.schedule_at(due[0][0], self._on_timer) if due else None
        )

    def _on_timer(self):
        self._timer = None
        self._retransmit(heapq.heappop(self._due)[2])
        self._arm()

    def _retransmit(self, entry):
        if entry.retries >= self.max_retries:
            message = entry.message
            del self._outstanding[(message.group, entry.recipient, message.seq)]
            self.abandoned += 1
            self.reset_channel(message.group, entry.recipient)
            return
        entry.retries += 1
        self.retransmissions += 1
        self._transmit(entry)


class ReferenceReceiver:
    def __init__(self, deliver, ack) -> None:
        self._deliver = deliver
        self._ack = ack
        self._epoch: dict[tuple[str, str], int] = {}
        self._expected: dict[tuple[str, str], int] = {}
        self._buffer: dict[tuple[str, str], dict[int, Any]] = {}
        self.duplicates = 0
        self.reordered = 0
        self.stale_epoch_drops = 0

    def on_data(self, data):
        self._ack(data.origin, data)
        key = (data.group, data.origin)
        epoch = self._epoch.get(key)
        if epoch is None or data.epoch > epoch:
            self._epoch[key] = data.epoch
            self._expected[key] = 1
            self._buffer[key] = {}
        elif data.epoch < epoch:
            self.stale_epoch_drops += 1
            return
        expected = self._expected.get(key, 1)
        if data.seq < expected:
            self.duplicates += 1
            return
        buffer = self._buffer.setdefault(key, {})
        if data.seq in buffer:
            self.duplicates += 1
            return
        buffer[data.seq] = data.payload
        if data.seq != expected:
            self.reordered += 1
        while expected in buffer:
            payload = buffer.pop(expected)
            expected += 1
            self._expected[key] = expected
            self._deliver(data.group, data.origin, payload)

    def pending_for(self, group, sender):
        return len(self._buffer.get((group, sender), {}))


# ---------------------------------------------------------------------------
# Receiver: arrivals in any order, from any epoch
# ---------------------------------------------------------------------------
arrivals = st.lists(
    st.tuples(
        st.sampled_from(GROUPS),
        st.sampled_from(PEERS),
        st.integers(0, 2),  # epoch
        st.integers(1, 5),  # seq
    ),
    max_size=60,
)


def receiver_state(receiver, log):
    return (
        list(log),
        receiver.duplicates,
        receiver.reordered,
        receiver.stale_epoch_drops,
        [receiver.pending_for(g, p) for g in GROUPS for p in PEERS],
    )


@settings(max_examples=400, deadline=None)
@given(arrivals)
def test_receiver_hands_over_what_the_reference_hands_over(arrivals):
    logs = {"new": [], "ref": []}
    receivers = {
        side: cls(
            lambda g, o, p, log=logs[side]: log.append(("deliver", g, o, p)),
            lambda o, d, log=logs[side]: log.append(("ack", o, d)),
        )
        for side, cls in (("new", FifoReceiver), ("ref", ReferenceReceiver))
    }
    for n, (group, origin, epoch, seq) in enumerate(arrivals):
        # The payload names the arrival, so a wrong hand-over shows.
        data = GroupDataMsg(group, origin, seq, (n, epoch, seq), epoch)
        for receiver in receivers.values():
            receiver.on_data(data)
        assert receiver_state(receivers["new"], logs["new"]) == receiver_state(
            receivers["ref"], logs["ref"]
        )


# ---------------------------------------------------------------------------
# Sender: sends, acks, resets, forgets and retransmissions
# ---------------------------------------------------------------------------
channel = st.tuples(st.sampled_from(GROUPS), st.sampled_from(PEERS))
steps = st.lists(
    st.one_of(
        st.tuples(st.just("send"), channel),
        st.tuples(st.just("ack"), st.integers(0, 40)),
        st.tuples(st.just("stale-ack"), st.integers(0, 40)),
        st.tuples(st.just("reset"), channel),
        st.tuples(st.just("forget"), channel),
        st.tuples(st.just("advance"), st.sampled_from((0.01, 0.05, 0.08, 0.3))),
    ),
    max_size=50,
)


class Side:
    """One sender version on its own clock, recording what it transmits;
    a message to one of ``lazy`` rides a trusted channel."""

    def __init__(self, cls, lazy):
        self.sim = Simulator()
        self.wire = []  # (time, recipient, GroupDataMsg, size)
        self.lazy = lazy
        self.sender = cls(
            self.sim, "o", self.send_raw, rto=RTO, max_retries=MAX_RETRIES
        )

    def send_raw(self, recipient, message, size_bytes):
        self.wire.append((self.sim.now, recipient, message, size_bytes))
        return recipient in self.lazy

    def state(self):
        sender = self.sender
        return (
            list(self.wire),
            sender.unacked,
            sender.retransmissions,
            sender.abandoned,
            self.sim.pending(),
        )


@settings(max_examples=300, deadline=None)
@given(steps, st.frozensets(st.sampled_from(PEERS)))
def test_sender_puts_on_the_wire_what_the_reference_puts_there(steps, lazy):
    sides = [Side(FifoSender, lazy), Side(ReferenceSender, lazy)]
    for n, step in enumerate(steps):
        for side in sides:
            sender, wire = side.sender, side.wire
            kind = step[0]
            if kind == "send":
                group, recipient = step[1]
                if n % 3:
                    sender.send(group, recipient, n, 64)
                else:
                    sender.send_to_all(group, ("o", *PEERS), n, 64)
            elif kind in ("ack", "stale-ack") and wire:
                _, recipient, message, _ = wire[step[1] % len(wire)]
                if kind == "stale-ack":
                    ack = GroupAckMsg(
                        message.group, "o", message.seq, message.epoch - 1
                    )
                else:
                    ack = GroupAckMsg(message.group, "o", message.seq, message.epoch)
                sender.on_ack(ack, recipient)
            elif kind == "reset":
                sender.reset_channel(*step[1])
            elif kind == "forget":
                sender.forget_recipient(*step[1])
            elif kind == "advance":
                side.sim.run(until=side.sim.now + step[1])
        assert sides[0].state() == sides[1].state()
