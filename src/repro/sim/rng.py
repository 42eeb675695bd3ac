"""Reproducible random streams and delay distributions.

Experiments need independent, seedable randomness per concern (service
times of replica 3, link jitter client-1→replica-7, update arrivals, ...).
:class:`RngRegistry` derives every stream from a master seed and its name,
so adding a new consumer never perturbs existing streams and every run is
exactly reproducible from ``(seed, names used)``.  Loss, churn, the
workload generators and the chaos engine draw from :class:`random.Random`
streams; the per-event delays (a message's link delay, a request's service
time) are read through a :class:`BlockCursor` from addressed blocks of
standard normals (:meth:`RngRegistry.block`), which each
:class:`Distribution` maps to its own values.  The paper's background load
(§6) is a normally distributed service delay, and the LAN links jitter the
same way; all distributions clamp to a non-negative floor.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np

#: Values in a stream's first block; each later block doubles, up to
#: :data:`MAX_BLOCK`, so a quiet stream draws little and a busy one pays a
#: block's fixed cost once per :data:`MAX_BLOCK` values.
FIRST_BLOCK = 16
MAX_BLOCK = 256
_DOUBLINGS = (MAX_BLOCK // FIRST_BLOCK).bit_length() - 1


def block_size(index: int) -> int:
    """The number of values in block ``index`` of every stream."""
    return MAX_BLOCK if index >= _DOUBLINGS else FIRST_BLOCK << index


class RngRegistry:
    """Derives independent named streams from one seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}
        # The one Philox every block is drawn from, re-keyed per block by
        # rewriting this state record's key and counter.
        self._philox = np.random.Philox(0)
        self._normals = np.random.Generator(self._philox)
        self._counter = np.zeros(4, dtype=np.uint64)
        self._state = {"bit_generator": "Philox", "buffer": np.zeros(4, dtype=np.uint64),
                       "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def _digest(self, name: str) -> bytes:
        return hashlib.sha256(f"{self.seed}:{name}".encode()).digest()

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(int.from_bytes(self._digest(name)[:8], "big"))
            self._streams[name] = rng
        return rng

    def key(self, name: str) -> np.ndarray:
        """The Philox key of the block stream ``name``."""
        return np.frombuffer(self._digest(name)[:16], dtype="<u8").astype(np.uint64)

    def block(self, key: np.ndarray, index: int) -> np.ndarray:
        """Block ``index`` of the stream keyed ``key``: :func:`block_size`
        standard normals from Philox keyed ``key`` at counter ``(0, index,
        0, 0)``, so it is drawn without the blocks before it."""
        self._counter[1] = index
        self._state["state"] = {"counter": self._counter, "key": key}
        self._philox.state = self._state
        return self._normals.standard_normal(block_size(index))

    def spawn(self, name: str) -> "RngRegistry":
        """Derive a child registry (e.g. one per repetition of a sweep)."""
        digest = hashlib.sha256(f"{self.seed}:spawn:{name}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))


class BlockCursor:
    """Reads the block stream ``name`` in order, as values of ``law``:
    ``block`` is the next block to draw, ``values`` the unread values of
    the last one, next value last."""

    __slots__ = ("_registry", "_key", "_normals", "law", "block", "values")

    def __init__(self, registry: RngRegistry, name: str, law: "Distribution") -> None:
        self._registry = registry
        self._key = registry.key(name)
        self.law = law
        self.block = 0
        self._hold(np.empty(0))

    def next(self) -> float:
        values = self.values
        return values.pop() if values else self.refill()

    def refill(self) -> float:
        """Draw the next block, hold it, and take its first value."""
        self._hold(self._registry.block(self._key, self.block))
        self.block += 1
        return self.values.pop()

    def relaw(self, law: "Distribution") -> None:
        """Read the unread normals as values of ``law`` from the next on."""
        if law is not self.law:
            self.law = law
            self._hold(self._normals[len(self._normals) - len(self.values):])

    def _hold(self, normals: np.ndarray) -> None:
        self._normals = normals
        values = self.law.transform(normals).tolist()
        values.reverse()
        self.values = values


def seed_for(root_seed: int, *key_parts: object) -> int:
    """Derive a deterministic 64-bit seed for one cell of a sweep.

    The same hash family as :meth:`RngRegistry.spawn`: independent of
    execution order and process boundaries, so a parallel experiment
    runner hands every cell the exact seed the serial loop would have
    derived.  ``key_parts`` are joined by their ``repr`` — use stable,
    primitive keys (strings, ints, floats).
    """
    key = ":".join(repr(part) for part in key_parts)
    digest = hashlib.sha256(f"{int(root_seed)}:cell:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Distribution:
    """A non-negative duration distribution, drawn a block at a time."""

    def transform(self, normals: np.ndarray) -> np.ndarray:
        """Map a block of standard normals to as many values of this law."""
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic mean where available (used by tests and capacity checks)."""
        raise NotImplementedError


class Constant(Distribution):
    """Always returns the same value."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative constant delay {value!r}")
        self.value = float(value)

    def transform(self, normals: np.ndarray) -> np.ndarray:
        return np.full(normals.shape, self.value)

    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Constant({self.value})"


class Normal(Distribution):
    """Normal(mu, sigma) truncated below at ``floor`` (durations only).

    §6 of the paper simulates background load with a normally distributed
    delay of mean 100 ms; this is the distribution that models it.
    """

    def __init__(self, mu: float, sigma: float, floor: float = 0.0) -> None:
        if sigma < 0:
            raise ValueError(f"negative sigma {sigma!r}")
        if floor < 0:
            raise ValueError(f"negative floor {floor!r}")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.floor = float(floor)

    def transform(self, normals: np.ndarray) -> np.ndarray:
        values = normals * self.sigma
        values += self.mu
        return np.maximum(values, self.floor, out=values)

    def mean(self) -> float:
        # Approximate: exact only when truncation mass is negligible.
        return max(self.floor, self.mu)

    def __repr__(self) -> str:
        return f"Normal({self.mu}, {self.sigma}, floor={self.floor})"


class LogNormal(Distribution):
    """Log-normal parameterized by the underlying normal's mu/sigma."""

    def __init__(self, mu: float, sigma: float) -> None:
        if sigma < 0:
            raise ValueError(f"negative sigma {sigma!r}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def transform(self, normals: np.ndarray) -> np.ndarray:
        return np.exp(self.mu + self.sigma * normals)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def __repr__(self) -> str:
        return f"LogNormal({self.mu}, {self.sigma})"
