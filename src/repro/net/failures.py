"""Scheduled fault injection.

Experiments inject transient host overloads at virtual times.  The injector
only *schedules*; the semantics live in :class:`~repro.net.node.Host`.
Crashes, partitions and lossy links are drawn by
:class:`~repro.net.chaos.ChaosEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.network import Network
from repro.net.node import Host


@dataclass(frozen=True)
class OverloadWindow:
    """A transient overload: ``factor``-times slower during [start, end)."""

    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid overload window [{self.start}, {self.end})")
        if self.factor < 1.0:
            raise ValueError(f"overload factor must be >= 1, got {self.factor!r}")


class FailureInjector:
    """Schedules transient host overloads."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.sim = network.sim
        self.injected: list[str] = []

    def _log(self, text: str) -> None:
        self.injected.append(f"t={self.sim.now:.3f} scheduled {text}")

    # ------------------------------------------------------------------
    # Transient overloads
    # ------------------------------------------------------------------
    def overload(self, host: Host, window: OverloadWindow) -> None:
        self.sim.schedule_at(window.start, host.begin_overload, window.factor)
        self.sim.schedule_at(window.end, host.end_overload)
        self._log(
            f"overload {host.name} x{window.factor} during "
            f"[{window.start}, {window.end})"
        )
