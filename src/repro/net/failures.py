"""Scheduled fault injection.

Experiments inject faults at virtual times: endpoint crashes (with optional
recovery), network partitions, and transient host overloads.  The injector
only *schedules*; the semantics live in :class:`~repro.net.network.Network`
and :class:`~repro.net.node.Host`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

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
    """Schedules crashes, recoveries, partitions, and overloads."""

    def __init__(self, network: Network) -> None:
        self.network = network
        network.expect_faults()
        self.sim = network.sim
        self.injected: list[str] = []

    def _log(self, text: str) -> None:
        self.injected.append(f"t={self.sim.now:.3f} scheduled {text}")

    # ------------------------------------------------------------------
    # Crashes
    # ------------------------------------------------------------------
    def crash_at(
        self,
        time: float,
        endpoint: str,
        recover_at: Optional[float] = None,
        on_crash: Optional[Callable[[], None]] = None,
        on_recover: Optional[Callable[[], None]] = None,
    ) -> None:
        """Crash ``endpoint`` at ``time``; optionally recover later.

        The endpoint must already be attached when the injection is
        *scheduled* — typos in failure scripts fail fast instead of at
        some later virtual time.  Scheduled crashes/recoveries inherit the
        fabric's idempotent semantics: overlapping injections against the
        same endpoint are safe, only real state transitions emit traces
        and run the ``on_crash``/``on_recover`` hooks.
        """
        if endpoint not in self.network.endpoints():
            raise ValueError(f"cannot schedule crash of unknown endpoint {endpoint!r}")

        def do_crash() -> None:
            if self.network.crash(endpoint) and on_crash is not None:
                on_crash()

        def do_recover() -> None:
            if self.network.recover(endpoint) and on_recover is not None:
                on_recover()

        self.sim.schedule_at(time, do_crash)
        self._log(f"crash {endpoint} at {time}")
        if recover_at is not None:
            if recover_at <= time:
                raise ValueError(
                    f"recovery time {recover_at} not after crash time {time}"
                )
            self.sim.schedule_at(recover_at, do_recover)
            self._log(f"recover {endpoint} at {recover_at}")

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition_at(
        self,
        time: float,
        side_a: Iterable[str],
        side_b: Iterable[str],
        heal_at: Optional[float] = None,
    ) -> None:
        side_a = list(side_a)
        side_b = list(side_b)
        self.sim.schedule_at(time, self.network.partition, side_a, side_b)
        self._log(f"partition {side_a}|{side_b} at {time}")
        if heal_at is not None:
            if heal_at <= time:
                raise ValueError(f"heal time {heal_at} not after cut time {time}")
            self.sim.schedule_at(heal_at, self.network.heal_partitions)
            self._log(f"heal at {heal_at}")

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
