"""Hosts: processing speed and transient overload.

The paper's testbed mixed 300 MHz and 1 GHz machines, and §1 motivates the
whole design with "hosts and links that either are inherently slow, or tend
to become slow due to transient overloads and failures".  A :class:`Host`
captures that: every service-time sample drawn by a replica running on the
host is multiplied by the host's *current* speed factor, and overload
windows can raise the factor temporarily.
"""

from __future__ import annotations


class Host:
    """A machine with a (possibly time-varying) relative slowness factor.

    ``speed_factor`` is a multiplier on service durations: ``1.0`` is the
    baseline machine, ``3.0`` is a machine three times slower (e.g. the
    300 MHz box next to the 1 GHz one).
    """

    def __init__(self, name: str, speed_factor: float = 1.0) -> None:
        if not name:
            raise ValueError("host name must be non-empty")
        if speed_factor <= 0:
            raise ValueError(f"speed factor must be positive, got {speed_factor!r}")
        self.name = name
        self.base_speed_factor = float(speed_factor)
        self._overload_factor = 1.0

    @property
    def speed_factor(self) -> float:
        """Current effective slowness multiplier."""
        return self.base_speed_factor * self._overload_factor

    def scale(self, duration: float) -> float:
        """Scale a nominal service duration by the current slowness."""
        if duration < 0:
            raise ValueError(f"negative duration {duration!r}")
        return duration * self.speed_factor

    # -- transient overload (driven by repro.net.failures) --------------
    def begin_overload(self, factor: float) -> None:
        if factor < 1.0:
            raise ValueError(f"overload factor must be >= 1, got {factor!r}")
        self._overload_factor = float(factor)

    def end_overload(self) -> None:
        self._overload_factor = 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} x{self.speed_factor:g}>"
