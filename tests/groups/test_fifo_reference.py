"""The FIFO receiver against the bookkeeping it replaced.

``FifoReceiver`` keeps one record per channel (its epoch, next expected seq
and out-of-order buffer), and hands an in-order arrival with an empty buffer
straight over.  Before that, it kept one dict per field, keyed by the same
``(group, peer)`` tuple, and every arrival went through the buffer.
``ReferenceReceiver`` below is that half, kept verbatim as the reference
(less its ack, gone with the acks): hypothesis runs random epochs, seqs,
duplicates, reorders and stale epochs through both versions, and requires
the same deliveries and the same counters after every step.

Mutants this kills: a fast path that ignores a non-empty buffer (it hands
seq 1 over and strands seq 2), and a fast path that skips the epoch check
(it hands over a stale or a fresh epoch's message as if it were the current
one's).
"""

from __future__ import annotations

from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.groups.multicast import FifoReceiver, GroupDataMsg

GROUPS = ("g", "h")
PEERS = ("a", "b")


# ---------------------------------------------------------------------------
# The reference: the per-field bookkeeping, verbatim
# ---------------------------------------------------------------------------
class ReferenceReceiver:
    def __init__(self, deliver) -> None:
        self._deliver = deliver
        self._epoch: dict[tuple[str, str], int] = {}
        self._expected: dict[tuple[str, str], int] = {}
        self._buffer: dict[tuple[str, str], dict[int, Any]] = {}
        self.duplicates = 0
        self.reordered = 0
        self.stale_epoch_drops = 0

    def on_data(self, data):
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
