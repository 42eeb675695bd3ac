"""Reliable per-pair FIFO messaging inside groups.

Guarantees (matching what the paper assumes from Maestro-Ensemble):

* **Reliable** — the fabric hands every transmission it drops back to its
  sender (:meth:`~repro.net.network.Endpoint.dropped`), and only then does
  the sender act: it resends at the deadline a retransmission timer would
  have fired at, until the retry budget is exhausted (the membership layer
  will have evicted a dead receiver well before that).  A message that is
  delivered leaves nothing behind: no record, no timer, no ack.
* **FIFO** — between each (sender, receiver) pair within a group, messages
  are delivered in send order; out-of-order arrivals are buffered,
  duplicates suppressed.

Sequence numbers are per ``(group, sender, receiver)`` pair, so a member
that joins late starts a fresh channel instead of waiting for messages that
predate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.net.message import Message
from repro.sim.kernel import Simulator

#: A group endpoint's retransmit timeout: a dropped message is resent this
#: long after it was sent, times ``backoff`` per earlier resend.
RTO = 0.05


# Not frozen: one is built per channel message, and a frozen dataclass pays
# ``object.__setattr__`` per field.  Treat instances as immutable.
@dataclass(slots=True, unsafe_hash=True)
class GroupDataMsg:
    """Application payload carried over a group FIFO channel.

    ``epoch`` versions the per-pair channel: when a member leaves and
    later rejoins a view, senders open a fresh epoch (sequence numbers
    restart at 1) so the rejoined receiver is not left waiting for
    messages that were dropped while it was down.  ``attempt`` counts the
    resends before this transmission.
    """

    group: str
    origin: str
    seq: int
    payload: Any
    epoch: int = 0
    attempt: int = field(default=0, repr=False)


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


class FifoSender:
    """Sender half: per-recipient sequencing, drop-driven retransmission.

    A transmission the fabric drops is resent at ``sent_at + rto ·
    backoff**attempt`` — the instant its retransmission timer would have
    fired — or at once if the fabric reports the drop later than that.  A
    resend into an epoch that has since been closed (the recipient was
    evicted, or rejoined) is skipped, and a message dropped on its
    ``max_retries``-th resend is given up, which opens a fresh epoch.
    """

    def __init__(
        self,
        sim: Simulator,
        owner: str,
        send_raw: Callable[[str, Any, int], Any],
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
        self._send_raw(recipient, message, size_bytes)
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

    def on_ack(self, dropped: Message) -> None:
        """The fabric's negative acknowledgement: ``dropped``, a
        transmission of a :class:`GroupDataMsg`, was lost.  Resend it at
        its deadline."""
        data = dropped.payload
        deadline = dropped.sent_at + self.rto * self.backoff**data.attempt
        sim = self.sim
        sim.schedule_at(max(deadline, sim._now), self._resend, dropped)

    def _resend(self, dropped: Message) -> None:
        data, recipient = dropped.payload, dropped.recipient
        channel = self._channels.get((data.group, recipient))
        if channel is None or channel.epoch != data.epoch:
            return  # the recipient was evicted or rejoined since
        if data.attempt >= self.max_retries:
            self.abandoned += 1
            # Giving up leaves a hole in the pair's sequence space that
            # would stall the receiver's FIFO forever; open a fresh epoch
            # so traffic resumes cleanly once the recipient is reachable.
            self.reset_channel(data.group, recipient)
            return
        self.retransmissions += 1
        resend = GroupDataMsg(
            data.group, data.origin, data.seq, data.payload, data.epoch,
            data.attempt + 1,
        )
        self._send_raw(recipient, resend, dropped.size_bytes)

    def reset_channel(self, group: str, recipient: str) -> None:
        """Open a fresh channel epoch to a member that was evicted, or that
        (re)joined: sequence numbers restart at 1, and no resend of an
        earlier epoch goes out."""
        channel = self._channels.get((group, recipient))
        if channel is None:
            channel = self._channels[group, recipient] = _Outbound()
        channel.seq = 0
        channel.epoch += 1


class FifoReceiver:
    """Receiver half: dedupe, per-sender reordering, in-order delivery."""

    def __init__(self, deliver: Callable[[str, str, Any], None]) -> None:
        self._deliver = deliver
        self._channels: dict[tuple[str, str], _Inbound] = {}
        self.duplicates = 0
        self.reordered = 0
        self.stale_epoch_drops = 0

    def on_data(self, data: GroupDataMsg) -> None:
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
