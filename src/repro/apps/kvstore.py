"""A replicated key-value object store.

Update methods: ``put``, ``clear``.  Read-only methods:
``get``, ``keys``, ``size``, ``dump``.  A client should declare the
read-only set with :data:`KVStore.READ_ONLY_METHODS` (§2's request model
— methods not declared read-only are treated as updates).
"""

from __future__ import annotations

from typing import Any

from repro.core.state import ReplicatedObject


class KVStore(ReplicatedObject):
    """Dictionary state with a mutation counter for version assertions."""

    READ_ONLY_METHODS = frozenset({"get", "keys", "size", "dump", "mutations"})

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        self._mutations = 0

    # -- updates ---------------------------------------------------------
    def put(self, key: str, value: Any) -> Any:
        self._data[key] = value
        self._mutations += 1
        return value

    def clear(self) -> int:
        count = len(self._data)
        self._data.clear()
        self._mutations += 1
        return count

    # -- read-only -------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def keys(self) -> list[str]:
        return sorted(self._data)

    def size(self) -> int:
        return len(self._data)

    def dump(self) -> dict[str, Any]:
        return dict(self._data)

    def mutations(self) -> int:
        """Number of committed mutations — equals the replica's version."""
        return self._mutations
