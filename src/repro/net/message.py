"""Network messages.

Messages carry an opaque ``payload`` (protocol layers define their own
payload dataclasses), plus enough metadata for tracing: sender, recipient,
send time, an id, and an optional size used by bandwidth-aware latency
models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


# Not frozen: the fabric builds one per send, and a frozen dataclass pays
# ``object.__setattr__`` per field.  Treat instances as immutable.
@dataclass(slots=True, unsafe_hash=True)
class Message:
    """One message in flight between two endpoints.

    ``msg_id`` is drawn by the :class:`~repro.net.network.Network` that
    sends the message: unique and increasing within that fabric, from 1, so
    a seeded run numbers its messages the same way in any process.  A
    message no fabric sent (a stand-in handed to a latency model) keeps 0.
    """

    sender: str
    recipient: str
    payload: Any
    sent_at: float
    size_bytes: int = 256
    msg_id: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"negative message size {self.size_bytes!r}")

    @property
    def kind(self) -> str:
        """Best-effort payload type name, for traces and debugging."""
        return type(self.payload).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Message #{self.msg_id} {self.sender}->{self.recipient} "
            f"{self.kind} @{self.sent_at:.6f}>"
        )
