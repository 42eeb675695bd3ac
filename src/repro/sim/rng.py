"""Reproducible random streams and delay distributions.

Experiments need independent, seedable randomness per concern (service
times of replica 3, link jitter client-1→replica-7, update arrivals, ...).
:class:`RngRegistry` derives one :class:`random.Random` stream per name from
a master seed, so adding a new consumer never perturbs existing streams and
every run is exactly reproducible from ``(seed, names used)``.

:class:`Distribution` subclasses model the delay distributions used across
the testbed.  The paper's background load (§6) is a normally distributed
service delay, and the LAN links jitter the same way.  All distributions
clamp to a non-negative floor because they model durations.
"""

from __future__ import annotations

import hashlib
import random


class RngRegistry:
    """Derives independent named ``random.Random`` streams from one seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def spawn(self, name: str) -> "RngRegistry":
        """Derive a child registry (e.g. one per repetition of a sweep)."""
        digest = hashlib.sha256(f"{self.seed}:spawn:{name}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))


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
    """A non-negative duration distribution sampled with an explicit stream."""

    def sample(self, rng: random.Random) -> float:
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

    def sample(self, rng: random.Random) -> float:
        return self.value

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

    def sample(self, rng: random.Random) -> float:
        return max(self.floor, rng.gauss(self.mu, self.sigma))

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

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(self.mu, self.sigma)

    def mean(self) -> float:
        import math

        return math.exp(self.mu + self.sigma**2 / 2.0)

    def __repr__(self) -> str:
        return f"LogNormal({self.mu}, {self.sigma})"
