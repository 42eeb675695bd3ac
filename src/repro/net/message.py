"""Network messages.

Messages carry an opaque ``payload`` (protocol layers define their own
payload dataclasses), plus enough metadata for tracing: sender, recipient,
send time, a globally unique id, and an optional size used by
bandwidth-aware latency models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_MESSAGE_IDS = itertools.count(1)


def next_message_id() -> int:
    """Allocate a process-wide unique message id (monotonic)."""
    return next(_MESSAGE_IDS)


# Not frozen: the fabric builds one per send, and a frozen dataclass pays
# ``object.__setattr__`` per field.  Treat instances as immutable.
@dataclass(slots=True, unsafe_hash=True)
class Message:
    """One message in flight between two endpoints."""

    sender: str
    recipient: str
    payload: Any
    sent_at: float
    size_bytes: int = 256
    msg_id: int = field(default_factory=next_message_id)

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
