"""Higher-level QoS specifications: priority and cost (Conclusions).

The paper: "it is easy to extend our framework so that the clients can
replace the probability of timely response with a higher-level
specification, such as priority or the cost the client is willing to pay
for timely delivery.  The middleware can then internally map these higher
level inputs to an appropriate probability value and perform adaptive
replica selection, as described."

This module provides exactly those mappings:

* :class:`PriorityMapper` — a small ordered set of named service classes
  (e.g. platinum/gold/silver/bronze), each bound to a ``P_c(d)``;
* :class:`CostMapper` — a continuous budget → probability curve with
  diminishing returns: each additional unit of spend buys a constant
  factor of failure-probability reduction, which mirrors how extra
  replicas multiply ``(1 − F)`` terms in Equation 1.

Both produce ordinary :class:`~repro.core.qos.QoSSpec` values, so the rest
of the middleware is untouched — the mapping is the only new moving part,
as the paper predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.qos import QoSSpec

DEFAULT_PRIORITY_LEVELS: dict[str, float] = {
    "platinum": 0.99,
    "gold": 0.9,
    "silver": 0.7,
    "bronze": 0.5,
    "best-effort": 0.0,
}


class PriorityMapper:
    """Maps named priority levels to minimum probabilities of timely
    response."""

    def __init__(self, levels: Optional[Mapping[str, float]] = None) -> None:
        levels = dict(levels) if levels is not None else dict(DEFAULT_PRIORITY_LEVELS)
        if not levels:
            raise ValueError("need at least one priority level")
        for name, probability in levels.items():
            if not name:
                raise ValueError("priority level names must be non-empty")
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"probability for {name!r} outside [0, 1]: {probability!r}"
                )
        self.levels = levels

    def probability_for(self, priority: str) -> float:
        try:
            return self.levels[priority]
        except KeyError:
            known = ", ".join(sorted(self.levels))
            raise KeyError(
                f"unknown priority {priority!r}; known levels: {known}"
            ) from None

    def qos_for(
        self, priority: str, staleness_threshold: int, deadline: float
    ) -> QoSSpec:
        """Build a full QoS spec from a priority level."""
        return QoSSpec(
            staleness_threshold=staleness_threshold,
            deadline=deadline,
            min_probability=self.probability_for(priority),
        )


@dataclass
class CostMapper:
    """Maps a spend budget to a probability with diminishing returns.

    The model: at zero budget the client gets ``base_probability``; each
    additional budget unit multiplies the *failure* probability by
    ``failure_discount`` (< 1).  So

        P(budget) = 1 − (1 − base) · failure_discount^budget

    capped at ``max_probability`` — the middleware never promises more
    than the replica pool can deliver.
    """

    base_probability: float = 0.5
    failure_discount: float = 0.5
    max_probability: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_probability <= 1.0:
            raise ValueError(f"base probability {self.base_probability!r}")
        if not 0.0 < self.failure_discount < 1.0:
            raise ValueError(
                f"failure discount must be in (0, 1), got {self.failure_discount!r}"
            )
        if not self.base_probability <= self.max_probability <= 1.0:
            raise ValueError(
                "max probability must lie between base probability and 1"
            )

    def probability_for(self, budget: float) -> float:
        if budget < 0:
            raise ValueError(f"negative budget {budget!r}")
        failure = (1.0 - self.base_probability) * (self.failure_discount**budget)
        return min(self.max_probability, 1.0 - failure)

    def qos_for(
        self, budget: float, staleness_threshold: int, deadline: float
    ) -> QoSSpec:
        return QoSSpec(
            staleness_threshold=staleness_threshold,
            deadline=deadline,
            min_probability=self.probability_for(budget),
        )
