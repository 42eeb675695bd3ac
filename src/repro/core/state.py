"""The replicated-object interface.

A replica hosts one :class:`ReplicatedObject`.  Update methods mutate it;
read-only methods observe it; the lazy-propagation machinery moves whole
snapshots from the primary group to the secondary group, so objects must be
snapshot/restore-able.  Example applications live in :mod:`repro.apps`.
"""

from __future__ import annotations

import copy
from typing import Any


class ReplicatedObject:
    """Base class for application state hosted on each replica.

    Subclasses implement ``invoke`` for both reads and updates; the
    middleware, not the object, decides which methods are read-only (via
    the client's read-only registry, §2).  The default snapshot/restore
    deep-copies ``__dict__``, which suits small objects; large apps can
    override with something smarter.
    """

    def invoke(self, method: str, args: tuple) -> Any:
        """Execute ``method(*args)`` against the state; return its result."""
        handler = getattr(self, method, None)
        if handler is None or not callable(handler):
            raise AttributeError(
                f"{type(self).__name__} has no invokable method {method!r}"
            )
        return handler(*args)

    def snapshot(self) -> Any:
        """An opaque, self-contained copy of the current state."""
        return copy.deepcopy(self.__dict__)

    def restore(self, snapshot: Any) -> None:
        """Replace the current state with a snapshot."""
        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(snapshot))


class CounterObject(ReplicatedObject):
    """Minimal replicated object used throughout the test suite.

    ``increment``/``add`` are updates, ``get`` is read-only.  ``get``
    returns the counter value, so staleness in versions equals the numeric
    lag — handy for asserting consistency bounds.
    """

    def __init__(self) -> None:
        self.value = 0
        self.history: list[int] = []

    def increment(self) -> int:
        self.value += 1
        self.history.append(self.value)
        return self.value

    def add(self, amount: int) -> int:
        self.value += int(amount)
        self.history.append(self.value)
        return self.value

    def get(self) -> int:
        return self.value

    def snapshot(self) -> dict:
        # The history holds ints, so a new list is a full copy; the
        # inherited deepcopy would walk every element on each lazy publish
        # and state transfer.
        return {"value": self.value, "history": list(self.history)}

    def restore(self, snapshot: dict) -> None:
        self.value = snapshot["value"]
        self.history = list(snapshot["history"])
