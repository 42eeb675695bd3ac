"""Link latency models.

A latency model says how a link times one message: a propagation delay
drawn from its :class:`~repro.sim.rng.Distribution` (one value of the
link's block stream, :class:`~repro.net.network.Link`) plus a per-byte
transmission term, which is enough to model both the paper's LAN and a
slower WAN for sensitivity studies.
"""

from __future__ import annotations

import random

from repro.sim.rng import Constant, Distribution, Normal


class LatencyModel:
    """One-way delay = propagation draw + size / bandwidth."""

    #: Whether :meth:`DegradedLatency.slow` applies to a drawn delay.
    degraded = False

    def __init__(
        self,
        propagation: Distribution,
        bandwidth_bytes_per_s: float = 0.0,
    ) -> None:
        if bandwidth_bytes_per_s < 0:
            raise ValueError(f"negative bandwidth {bandwidth_bytes_per_s!r}")
        self.propagation = propagation
        self.bandwidth_bytes_per_s = float(bandwidth_bytes_per_s)
        # Seconds per byte sent: the transmission term's slope.
        self.per_byte = (
            1.0 / self.bandwidth_bytes_per_s if self.bandwidth_bytes_per_s > 0 else 0.0
        )

    def mean_delay(self, size_bytes: int = 256) -> float:
        return self.propagation.mean() + size_bytes * self.per_byte

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyModel({self.propagation!r}, "
            f"bw={self.bandwidth_bytes_per_s})"
        )


class DegradedLatency(LatencyModel):
    """A gray-failure wrapper: base delay × ``factor`` + uniform jitter.

    The fabric composes one of these on the fly when a node is degraded
    (:meth:`~repro.net.network.Network.degrade_node`), so the endpoint
    stays *alive* — what it sends still arrives — but every message
    through it is late by a multiplicative slowdown of the delay its link
    drew plus an additive jitter.  The jitter is drawn from the link's own
    ``net.jitter`` stream, consumed only while the link is degraded.
    """

    degraded = True

    def __init__(
        self, base: LatencyModel, factor: float = 1.0, jitter_s: float = 0.0
    ) -> None:
        if factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {factor!r}")
        if jitter_s < 0.0:
            raise ValueError(f"negative degradation jitter {jitter_s!r}")
        super().__init__(base.propagation, base.bandwidth_bytes_per_s)
        self.factor = factor
        self.jitter_s = jitter_s

    def slow(self, delay: float, jitter: random.Random) -> float:
        """The degraded delay of a message its link timed at ``delay``."""
        delay *= self.factor
        if self.jitter_s > 0.0:
            delay += jitter.uniform(0.0, self.jitter_s)
        return delay

    def mean_delay(self, size_bytes: int = 256) -> float:
        return super().mean_delay(size_bytes) * self.factor + self.jitter_s / 2.0


class LanLatency(LatencyModel):
    """A 100 Mbps-LAN-like link: sub-millisecond jittered delay.

    Default: ~0.3 ms mean propagation with mild jitter and 100 Mbps
    serialization, matching the paper's testbed scale where gateway-to-
    gateway delay is small and stable relative to service time (§5.2.1
    exploits this by keeping only the latest gateway-delay value).
    """

    def __init__(
        self,
        mean_s: float = 0.0003,
        jitter_s: float = 0.0001,
        bandwidth_bytes_per_s: float = 100e6 / 8,
    ) -> None:
        super().__init__(
            Normal(mean_s, jitter_s, floor=mean_s * 0.1),
            bandwidth_bytes_per_s,
        )


class FixedLatency(LatencyModel):
    """Deterministic delay — useful for protocol unit tests."""

    def __init__(self, delay_s: float) -> None:
        super().__init__(Constant(delay_s), 0.0)
