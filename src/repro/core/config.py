"""The one declaration, and the one validator, of every service parameter.

:class:`ServiceConfig` is the paper's handful of dials — the ordering
guarantee (§2), the two group sizes (§3), ``T_L`` (§4.1) and the window
``l`` (§5.2) — plus the fabric timers our completion of the protocols
needs.  A field exists only while some caller sets it; a value nobody
varies is a named constant in the module that reads it (the 1 ms pmf
grid is :data:`repro.core.client.QUANTUM`).  Everything below it is
built *from* it:
:class:`~repro.core.replica.ReplicaHandlerBase` and
:class:`~repro.core.client.ClientHandler` take the config and bind what
they read as plain attributes, and :func:`~repro.core.service.build_testbed`
hands :attr:`ServiceConfig.membership` to the membership detector.  A
value that would hang or crash a running simulation is therefore refused
here, where it is written, not where it is first used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.controller import ControllerConfig
from repro.core.detector import DetectorConfig
from repro.core.overload import OverloadConfig
from repro.core.qos import OrderingGuarantee
from repro.core.tuning import StalenessTarget
from repro.groups.membership import MembershipConfig
from repro.sim.rng import Distribution, Normal


def default_service_time() -> Distribution:
    """§6's simulated background load: normally distributed service delay
    with a mean of 100 ms (spread parameter 50 ms; see DESIGN.md on the
    paper's ambiguous "variance of 50 milliseconds")."""
    return Normal(0.100, 0.050, floor=0.002)


@dataclass
class ServiceConfig:
    """Everything tunable about one replicated service."""

    name: str = "svc"
    num_primaries: int = 4  # serving primaries; the sequencer is extra
    num_secondaries: int = 6
    ordering: OrderingGuarantee = OrderingGuarantee.SEQUENTIAL
    lazy_update_interval: float = 2.0  # T_L / "LUI" in §6
    # Optional closed-loop T_L tuning (repro.core.tuning): when set, the
    # lazy publisher adapts the interval to hold this staleness target
    # and announces the live value through its staleness broadcasts.
    adaptive_lazy_target: Optional[StalenessTarget] = None
    window_size: int = 20  # sliding window l (§5.2; §6 uses 20)
    read_service_time: Distribution = field(default_factory=default_service_time)
    update_service_time: Optional[Distribution] = None
    # Membership: every endpoint beats at heartbeat_interval and the
    # detector (swept at the same period) evicts after suspect_timeout.
    membership: MembershipConfig = field(default_factory=MembershipConfig)
    gsn_wait_timeout: float = 0.25  # re-request a read's GSN stamp after this
    gc_timeout: float = 30.0  # a client forgets an unanswered request
    # Overload protection (DESIGN.md §11).  None (the default) disables
    # shedding, bounded queues, and deferred-read expiry entirely — the
    # service behaves bit-identically to builds that predate the feature.
    overload: Optional[OverloadConfig] = None
    # φ-accrual gray-failure detection (DESIGN.md §14).  None (the
    # default) disables suspicion-driven ejection, hedging, probing, the
    # adaptive commit-gap watchdog, and slow-publisher reassignment —
    # again bit-identical to detector-free builds.
    detector: Optional[DetectorConfig] = None
    # Closed-loop SLA guardian (DESIGN.md §16).  None (the default)
    # means no controller exists and no actuation path is live — once
    # more bit-identical to controller-free builds.  The live instance
    # is built by attach_controller() when the sensors (SloEngine +
    # TimeseriesRecorder) exist.
    controller: Optional[ControllerConfig] = None

    def __post_init__(self) -> None:
        if self.num_primaries < 1:
            raise ValueError("need at least one serving primary")
        if self.num_secondaries < 0:
            raise ValueError("negative secondary count")
        if self.lazy_update_interval <= 0:
            raise ValueError(
                "lazy update interval must be positive, "
                f"got {self.lazy_update_interval!r}"
            )
        # Each of these is a timer period: zero re-arms a timer at +0 s
        # forever, negative is refused by the kernel only once the first
        # request arrives.
        for name in ("gsn_wait_timeout", "gc_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)!r}"
                )
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size!r}")

    @property
    def has_sequencer(self) -> bool:
        return self.ordering is OrderingGuarantee.SEQUENTIAL
