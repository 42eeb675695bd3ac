"""Adaptive lazy-update-interval control.

§3: "The degree of divergence between the states of primary and secondary
replicas can be bounded by choosing an appropriate frequency for the lazy
update propagation."  The paper chooses that frequency statically (the
LUI of §6); this module chooses it *adaptively*, closing the loop with the
same Poisson model Eq. 4 uses for selection:

Given a staleness target — "just before a lazy update fires, the secondary
group should satisfy ``P(A_s <= a) >= p``" — and the measured update
arrival rate ``lambda_u``, the controller solves for the largest Poisson
mean ``m*`` with ``P(N <= a | m*) >= p`` and recommends
``T_L = m* / lambda_u``: the longest interval (fewest propagation
messages) that still meets the consistency target.  The rate estimate is
an EWMA over per-interval counts, so the interval tightens during update
storms and relaxes when traffic quiets down.

Wire-up: pass ``adaptive_lazy_target`` in
:class:`~repro.core.service.ServiceConfig`; every primary re-tunes on its
own cadence, and the lazy publisher announces the interval in effect
through its staleness broadcasts (clients need ``T_L`` for the ``t_l``
modulo of §5.4.1).

Precedence (DESIGN.md §16): when the closed-loop
:class:`~repro.core.controller.ConsistencyController` is configured as
well, its interval wins — but is clamped from above by
:meth:`AdaptiveLazyController.recommended_interval`, because that value
is the *longest* interval still meeting the declared staleness target,
i.e. a consistency bound no tuner may exceed.  Each sequential replica's
:class:`LazyIntervalTuner` is the single writer resolving both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.stats.poisson import poisson_cdf

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.handlers.sequential import SequentialReplicaHandler


@dataclass(frozen=True)
class StalenessTarget:
    """The consistency goal the controller maintains.

    At the most stale instant (immediately before a lazy propagation) the
    secondary group should still satisfy ``P(A_s <= threshold) >=
    probability``.
    """

    threshold: int
    probability: float

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError(f"negative staleness threshold {self.threshold!r}")
        if not 0.0 < self.probability < 1.0:
            raise ValueError(
                f"target probability must be in (0, 1), got {self.probability!r}"
            )


def max_poisson_mean(threshold: int, probability: float, tol: float = 1e-6) -> float:
    """Largest mean ``m`` with ``P(Poisson(m) <= threshold) >= probability``.

    Monotone in ``m`` (the CDF falls as the mean grows), so a bisection
    over ``m`` suffices.
    """
    if not 0.0 < probability < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {probability!r}")
    if threshold < 0:
        return 0.0
    low, high = 0.0, 1.0
    while poisson_cdf(threshold, high) >= probability:
        high *= 2.0
        if high > 1e9:  # pragma: no cover - absurd targets
            return high
    while high - low > tol * max(1.0, high):
        mid = (low + high) / 2.0
        if poisson_cdf(threshold, mid) >= probability:
            low = mid
        else:
            high = mid
    return low


class AdaptiveLazyController:
    """Tunes the lazy update interval to hold a staleness target."""

    def __init__(
        self,
        target: StalenessTarget,
        min_interval: float = 0.1,
        max_interval: float = 30.0,
        ewma_alpha: float = 0.3,
        initial_rate: float = 0.0,
    ) -> None:
        if min_interval <= 0 or max_interval < min_interval:
            raise ValueError(
                f"invalid interval bounds [{min_interval}, {max_interval}]"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma alpha must be in (0, 1], got {ewma_alpha!r}")
        self.target = target
        self.min_interval = min_interval
        self.max_interval = max_interval
        self.ewma_alpha = ewma_alpha
        self._rate = float(initial_rate)
        self._have_observation = initial_rate > 0
        # The budget: the largest tolerable expected update count per
        # interval, fixed by the target alone.
        self.mean_budget = max_poisson_mean(target.threshold, target.probability)
        self.observations = 0

    @property
    def estimated_rate(self) -> float:
        """Current EWMA of the update arrival rate (per second)."""
        return self._rate

    def observe(self, updates: int, interval: float) -> None:
        """Fold one lazy interval's update count into the rate estimate."""
        if updates < 0:
            raise ValueError(f"negative update count {updates!r}")
        if interval <= 0:
            return
        rate = updates / interval
        if self._have_observation:
            self._rate += self.ewma_alpha * (rate - self._rate)
        else:
            self._rate = rate
            self._have_observation = True
        self.observations += 1

    def recommended_interval(self) -> float:
        """The longest interval that still meets the staleness target."""
        if self._rate <= 0.0:
            return self.max_interval  # no updates: propagate rarely
        raw = self.mean_budget / self._rate
        return min(self.max_interval, max(self.min_interval, raw))


class LazyIntervalTuner:
    """The one writer of a sequential replica's ``T_L`` after construction:
    the configured base, the open-loop recommendation of an
    :class:`AdaptiveLazyController` (built when the service declares
    ``adaptive_lazy_target``), and the closed-loop interval the
    :class:`~repro.core.controller.ConsistencyController` pushes to every
    up primary each epoch — a replica down when it moved adopts it at the
    next one.
    """

    def __init__(
        self, handler: "SequentialReplicaHandler", target: Optional[StalenessTarget]
    ) -> None:
        self.handler = handler
        self.open_loop: Optional[AdaptiveLazyController] = (
            None if target is None else AdaptiveLazyController(target)
        )
        self.base = handler.lazy_update_interval
        self.closed_loop: Optional[float] = None
        # Updates this primary saw since the last tuning tick.
        self.updates = 0
        self._last_tune_at = 0.0
        self._gauge = handler.metrics.gauge(
            "replica_lazy_interval_seconds", replica=handler.name
        )
        self._gauge.set(self.base)

    def start(self) -> None:
        """Arm the open-loop tuning loop, if any.  Its one-second windows
        catch an update storm within a few EWMA steps, without low-rate
        traffic whipsawing the estimate, however long ``T_L`` is."""
        if self.open_loop is None:
            return
        self.updates = 0
        self._last_tune_at = self.handler.now
        self.handler.sim.schedule(self._tune_interval(), self._tune_tick)

    def _tune_interval(self) -> float:
        return max(1.0, self.open_loop.min_interval)

    def _tune_tick(self) -> None:
        """Observe the update rate and re-tune ``T_L``.  Only a primary
        counts updates: a replica that never joined the primary group ends
        the chain at its first tick."""
        handler = self.handler
        if handler.network is None or not handler.has_joined(handler.groups.primary):
            return
        if handler.up and handler.is_primary:
            self.open_loop.observe(self.updates, handler.now - self._last_tune_at)
            self.updates = 0
            self._last_tune_at = handler.now
            self._apply()
        handler.sim.schedule(self._tune_interval(), self._tune_tick)

    def set_controller_interval(self, interval: float) -> None:
        """Closed-loop actuation of ``T_L`` (see :meth:`effective`)."""
        if interval <= 0:
            raise ValueError(f"controller interval must be positive, got {interval!r}")
        self.closed_loop = interval
        self._apply()

    def effective(self) -> float:
        """The interval in force: the closed-loop override, clamped from
        above by the open-loop bound — the longest interval still meeting
        the declared staleness target — when both are configured;
        otherwise the open-loop recommendation; otherwise the base."""
        bound = None if self.open_loop is None else self.open_loop.recommended_interval()
        if self.closed_loop is not None:
            return self.closed_loop if bound is None else min(self.closed_loop, bound)
        return self.base if bound is None else bound

    def announced(self) -> Optional[float]:
        """The ``T_L`` a publisher announces (§5.4.1): the live interval
        once a tuner can move it off the default clients were built with."""
        if self.open_loop is None and self.closed_loop is None:
            return None
        return self.handler.lazy_update_interval

    def _apply(self) -> None:
        handler = self.handler
        effective = self.effective()
        if abs(effective - handler.lazy_update_interval) <= 1e-9:
            return
        handler.lazy_update_interval = effective
        self._gauge.set(effective)
        if handler.network is not None:
            handler._schedule_lazy_tick()
