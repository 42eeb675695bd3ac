"""Naive selection policies used as comparison baselines.

All of them ignore the probabilistic models (that is the point); they see
the same candidate list Algorithm 1 sees and return a subset.  The
predicted probability they report is computed with the same accumulator as
Algorithm 1 so experiment reports can show what the model *would* have
predicted for their choice.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.qos import QoSSpec
from repro.core.selection import (
    ReplicaView,
    SelectionResult,
    SelectionStrategy,
    _PkAccumulator,
)


def _predict(
    chosen: Sequence[ReplicaView], stale_factor: float, target: float
) -> SelectionResult:
    """Score a fixed choice with the paper's P_K(d) model (no exclusion)."""
    acc = _PkAccumulator(stale_factor)
    for replica in chosen:
        acc.include(replica)
    probability = acc.probability() if chosen else 0.0
    return SelectionResult(
        tuple(r.name for r in chosen), probability, probability >= target
    )


class AllReplicasSelection(SelectionStrategy):
    """§5's first strawman: send every read to every replica."""

    name = "all-replicas"

    def select(
        self,
        candidates: Sequence[ReplicaView],
        qos: QoSSpec,
        stale_factor: float,
    ) -> SelectionResult:
        return _predict(list(candidates), stale_factor, qos.min_probability)


class RandomSingleSelection(SelectionStrategy):
    """§5's second strawman: a single uniformly random replica per read."""

    name = "random-single"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def select(
        self,
        candidates: Sequence[ReplicaView],
        qos: QoSSpec,
        stale_factor: float,
    ) -> SelectionResult:
        if not candidates:
            return SelectionResult((), 0.0, False)
        choice = self._rng.choice(list(candidates))
        return _predict([choice], stale_factor, qos.min_probability)


class RoundRobinSelection(SelectionStrategy):
    """Single replica per read, rotating deterministically."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def select(
        self,
        candidates: Sequence[ReplicaView],
        qos: QoSSpec,
        stale_factor: float,
    ) -> SelectionResult:
        if not candidates:
            return SelectionResult((), 0.0, False)
        ordered = sorted(candidates, key=lambda r: r.name)
        choice = ordered[self._cursor % len(ordered)]
        self._cursor += 1
        return _predict([choice], stale_factor, qos.min_probability)


class FixedSizeSelection(SelectionStrategy):
    """Always the same number of replicas, rotating for balance.

    The non-adaptive middle ground: redundancy without a model.  ``k=1``
    degenerates to round-robin; ``k=len(candidates)`` to all-replicas.
    """

    name = "fixed-k"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        self.k = k
        self._cursor = 0

    def select(
        self,
        candidates: Sequence[ReplicaView],
        qos: QoSSpec,
        stale_factor: float,
    ) -> SelectionResult:
        if not candidates:
            return SelectionResult((), 0.0, False)
        ordered = sorted(candidates, key=lambda r: r.name)
        k = min(self.k, len(ordered))
        start = self._cursor % len(ordered)
        self._cursor += k
        chosen = [ordered[(start + i) % len(ordered)] for i in range(k)]
        return _predict(chosen, stale_factor, qos.min_probability)


class PrimaryOnlySelection(SelectionStrategy):
    """Strong-consistency stance: read only from (all) primary replicas.

    This is what a classic active-replication deployment does — every read
    sees the freshest state, at the price of concentrating read load on
    the small primary group.
    """

    name = "primary-only"

    def select(
        self,
        candidates: Sequence[ReplicaView],
        qos: QoSSpec,
        stale_factor: float,
    ) -> SelectionResult:
        primaries = [r for r in candidates if r.is_primary]
        return _predict(primaries, stale_factor, qos.min_probability)
