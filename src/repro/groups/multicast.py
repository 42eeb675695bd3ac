"""Reliable per-pair FIFO messaging inside groups.

Guarantees (matching what the paper assumes from Maestro-Ensemble):

* **Reliable** — every message is acknowledged; unacknowledged messages are
  retransmitted with backoff until acked or the retry budget is exhausted
  (the membership layer will have evicted a dead receiver well before
  that).  A message on a link the fabric trusts keeps no books: no record,
  no deadline, and no ack travels.
* **FIFO** — between each (sender, receiver) pair within a group, messages
  are delivered in send order; out-of-order arrivals are buffered,
  duplicates suppressed (and re-acked, so lost acks recover).

Sequence numbers are per ``(group, sender, receiver)`` pair, so a member
that joins late starts a fresh channel instead of waiting for messages that
predate it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.sim.kernel import Event, Simulator

#: A group endpoint's retransmit timeout: a message's first deadline, and
#: the budget within which its channel must be trusted to need no ack.
RTO = 0.05


# Neither wire record is frozen: one is built per channel message, and a
# frozen dataclass pays ``object.__setattr__`` per field.  Treat instances
# as immutable.
@dataclass(slots=True, unsafe_hash=True)
class GroupDataMsg:
    """Application payload carried over a group FIFO channel.

    ``epoch`` versions the per-pair channel: when a member leaves and
    later rejoins a view, senders open a fresh epoch (sequence numbers
    restart at 1) so the rejoined receiver is not left waiting for
    messages that were dropped while it was down.
    """

    group: str
    origin: str
    seq: int
    payload: Any
    epoch: int = 0


@dataclass(slots=True, unsafe_hash=True)
class GroupAckMsg:
    """Acknowledgement for one :class:`GroupDataMsg` (its ``epoch`` too:
    sequence numbers restart with every epoch)."""

    group: str
    origin: str
    seq: int
    epoch: int = 0


@dataclass(slots=True)
class _Outbound:
    """The sender's record of one channel: the last sequence number sent
    on it and the epoch that number belongs to."""

    seq: int = 0
    epoch: int = 0


@dataclass(slots=True)
class _Inbound:
    """The receiver's record of one channel: its epoch, the next sequence
    number to hand over, and what arrived ahead of it."""

    epoch: int
    expected: int = 1
    buffer: dict[int, Any] = field(default_factory=dict)


@dataclass(slots=True)
class _Outstanding:
    recipient: str
    message: GroupDataMsg
    size_bytes: int
    retries: int = 0
    settled: bool = False  # acked, forgotten or abandoned


class FifoSender:
    """Sender half: per-recipient sequencing, acks, retransmission.

    Retransmit deadlines wait in ``_due``, a heap in ``(deadline, transmit
    order)``, and one kernel timer is armed for its earliest entry.  A
    multicast to n members arms one timer, and n acks cancel it once —
    settled entries are dropped when they surface — where a timer per
    message cost a ``schedule`` and a ``cancel`` each.  Retransmissions
    happen at the instants, and in the order, per-message timers would
    give.

    ``send_raw`` returns true for a message the fabric guarantees, ack and
    all, well inside ``rto``: that one keeps no record, no deadline and no
    timer.  The verdict is the channel's for the whole run, so a message
    that was given a deadline is retransmitted with one.
    """

    def __init__(
        self,
        sim: Simulator,
        owner: str,
        send_raw: Callable[[str, Any, int], Optional[bool]],
        rto: float = RTO,
        max_retries: int = 20,
        backoff: float = 1.5,
    ) -> None:
        if rto <= 0:
            raise ValueError(f"rto must be positive, got {rto!r}")
        if max_retries < 0:
            raise ValueError(f"negative max_retries {max_retries!r}")
        self.sim = sim
        self.owner = owner
        self._send_raw = send_raw
        self.rto = rto
        self.max_retries = max_retries
        self.backoff = backoff
        self._channels: dict[tuple[str, str], _Outbound] = {}
        # Every message not yet settled, across channels; _due breaks
        # deadline ties on the transmit number.
        self._outstanding: dict[tuple[str, str, int], _Outstanding] = {}
        # Invariant between calls: the head of _due is unsettled, and
        # _timer is armed for its deadline (None when _due is empty).
        self._due: list[tuple[float, int, _Outstanding]] = []
        self._transmits = itertools.count()
        self._timer: Optional[Event] = None
        self.retransmissions = 0
        self.abandoned = 0

    def send(
        self, group: str, recipient: str, payload: Any, size_bytes: int = 256
    ) -> GroupDataMsg:
        """Reliably send ``payload`` to one group member."""
        channel = self._channels.get((group, recipient))
        if channel is None:
            channel = self._channels[group, recipient] = _Outbound()
        seq = channel.seq = channel.seq + 1
        message = GroupDataMsg(group, self.owner, seq, payload, channel.epoch)
        # The first transmission; _retransmit sends the others.
        if self._send_raw(recipient, message, size_bytes):
            return message
        entry = _Outstanding(recipient, message, size_bytes)
        self._outstanding[(group, recipient, seq)] = entry
        heapq.heappush(
            self._due, (self.sim._now + self.rto, next(self._transmits), entry)
        )
        if self._due[0][2] is entry:
            self._arm()
        return message

    def send_to_all(
        self,
        group: str,
        recipients: Iterable[str],
        payload: Any,
        size_bytes: int = 256,
    ) -> int:
        """Reliable FIFO multicast: one channel message per recipient, the
        owner skipped.  Returns how many were sent."""
        sent = 0
        for recipient in recipients:
            if recipient != self.owner:
                self.send(group, recipient, payload, size_bytes)
                sent += 1
        return sent

    def on_ack(self, ack: GroupAckMsg, from_member: str) -> None:
        """Settle the message ``ack`` names."""
        key = (ack.group, from_member, ack.seq)
        entry = self._outstanding.get(key)
        # An ack of an earlier epoch names another message with this seq.
        if entry is not None and entry.message.epoch == ack.epoch:
            del self._outstanding[key]
            # _settle, inline: this runs once per channel message.
            entry.settled = True
            due = self._due
            if due and due[0][2] is entry:
                self._arm()

    def reset_channel(self, group: str, recipient: str) -> None:
        """Open a fresh channel epoch to a (re)joined member.

        Drops outstanding traffic and restarts sequence numbers at 1, so
        the receiver's fresh-epoch state lines up.
        """
        self.forget_recipient(group, recipient)
        channel = self._channels.get((group, recipient))
        if channel is None:
            channel = self._channels[group, recipient] = _Outbound()
        channel.seq = 0
        channel.epoch += 1

    def forget_recipient(self, group: str, recipient: str) -> None:
        """Drop outstanding traffic to an evicted member."""
        stale = [
            key
            for key in self._outstanding
            if key[0] == group and key[1] == recipient
        ]
        for key in stale:
            self._settle(self._outstanding.pop(key))

    @property
    def unacked(self) -> int:
        return len(self._outstanding)

    def _settle(self, entry: _Outstanding) -> None:
        entry.settled = True
        if self._due and self._due[0][2] is entry:
            self._arm()

    def _arm(self) -> None:
        """Restore the invariant after the head of ``_due`` changed."""
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

    def _on_timer(self) -> None:
        # One entry per firing, as with a timer each: entries due at the
        # same instant re-arm for "now" and fire as consecutive events.
        self._timer = None
        self._retransmit(heapq.heappop(self._due)[2])
        self._arm()  # for the retransmission's deadline too

    def _retransmit(self, entry: _Outstanding) -> None:
        if entry.retries >= self.max_retries:
            message = entry.message
            del self._outstanding[(message.group, entry.recipient, message.seq)]
            self.abandoned += 1
            # Giving up leaves a hole in the pair's sequence space that
            # would stall the receiver's FIFO forever; open a fresh epoch
            # so traffic resumes cleanly once the recipient is reachable.
            self.reset_channel(message.group, entry.recipient)
            return
        entry.retries += 1
        self.retransmissions += 1
        self._send_raw(entry.recipient, entry.message, entry.size_bytes)
        deadline = self.sim.now + self.rto * (self.backoff**entry.retries)
        heapq.heappush(self._due, (deadline, next(self._transmits), entry))


class FifoReceiver:
    """Receiver half: dedupe, per-sender reordering, in-order delivery."""

    def __init__(
        self,
        deliver: Callable[[str, str, Any], None],
        ack: Callable[[str, GroupDataMsg], None],
    ) -> None:
        self._deliver = deliver
        self._ack = ack
        self._channels: dict[tuple[str, str], _Inbound] = {}
        self.duplicates = 0
        self.reordered = 0
        self.stale_epoch_drops = 0

    def on_data(self, data: GroupDataMsg) -> None:
        # Always ack, including duplicates: the original ack may have been
        # lost, and re-acking is what stops the sender's retransmissions.
        # Whether a GroupAckMsg travels is the endpoint's call.
        self._ack(data.origin, data)
        channel = self._channels.get((data.group, data.origin))
        if channel is None or data.epoch > channel.epoch:
            # First contact, or the sender opened a fresh channel epoch
            # (we rejoined after a crash): start over from seq 1.
            channel = self._channels[data.group, data.origin] = _Inbound(data.epoch)
        elif data.epoch < channel.epoch:
            self.stale_epoch_drops += 1
            return
        seq, expected, buffer = data.seq, channel.expected, channel.buffer
        if seq == expected and not buffer:
            # In order with nothing held back: hand it straight over.
            channel.expected = seq + 1
            self._deliver(data.group, data.origin, data.payload)
            return
        if seq < expected or seq in buffer:
            self.duplicates += 1
            return
        buffer[seq] = data.payload
        if seq != expected:
            self.reordered += 1
        while expected in buffer:
            payload = buffer.pop(expected)
            expected += 1
            channel.expected = expected
            self._deliver(data.group, data.origin, payload)

    def pending_for(self, group: str, sender: str) -> int:
        """Buffered-but-undeliverable message count (tests/diagnostics)."""
        channel = self._channels.get((group, sender))
        return 0 if channel is None else len(channel.buffer)
