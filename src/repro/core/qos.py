"""The QoS model of §2.

Consistency is a two-dimensional attribute ``<ordering guarantee,
staleness threshold>``:

* the **ordering guarantee** is service-specific (we target sequential
  ordering, with FIFO and causal also implemented as alternative handlers);
* the **staleness threshold** ``a`` is client-specified and counted in
  *versions*: a response may come from a replica whose state misses at most
  the ``a`` most recent committed updates.

Timeliness is the pair ``<deadline d, P_c(d)>``: the client expects a
response within ``d`` seconds of transmitting the request, with probability
at least ``P_c(d)``.  Timeliness applies only to read-only requests; update
requests carry only the ordering constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class OrderingGuarantee(Enum):
    """Service-wide ordering of operations (§2)."""

    SEQUENTIAL = "sequential"
    FIFO = "fifo"
    CAUSAL = "causal"  # named in §2, not built in the paper; our extension


@dataclass(frozen=True)
class QoSSpec:
    """A client's consistency + timeliness requirement for read requests.

    Example from §2: "a copy of the document that is not more than 5
    versions old within 2.0 seconds with a probability of at least 0.7" is
    ``QoSSpec(staleness_threshold=5, deadline=2.0, min_probability=0.7)``.
    """

    staleness_threshold: int
    deadline: float
    min_probability: float

    def __post_init__(self) -> None:
        if self.staleness_threshold < 0:
            raise ValueError(
                f"staleness threshold must be >= 0, got {self.staleness_threshold!r}"
            )
        if not (self.deadline > 0 and math.isfinite(self.deadline)):
            raise ValueError(f"deadline must be positive, got {self.deadline!r}")
        if not 0.0 <= self.min_probability <= 1.0:
            raise ValueError(
                f"min probability must be in [0, 1], got {self.min_probability!r}"
            )

    def describe(self) -> str:
        """Human-readable one-liner used in reports."""
        return (
            f"staleness<={self.staleness_threshold} versions, "
            f"deadline={self.deadline * 1000:.0f} ms, "
            f"P_c>={self.min_probability:.2f}"
        )
