"""Replica selection: Algorithm 1 and the strategy interface.

The *state-based replica selection algorithm* (Algorithm 1, §5.3) picks no
more replicas than needed for the predicted probability that at least one
selected replica responds by the deadline to reach the client's
``P_c(d)`` — while tolerating the crash of the selected member most likely
to make the deadline, and while rotating load away from recently used
replicas (hot-spot avoidance via decreasing-``ert`` visiting order).

The same :class:`SelectionStrategy` interface also hosts the baseline
policies in :mod:`repro.baselines.strategies`, so experiments can swap the
paper's algorithm against naive alternatives.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Sequence, Union

from repro.core.qos import QoSSpec


# Neither record is frozen: Algorithm 1 builds one view per visited
# candidate per read, and a frozen dataclass pays ``object.__setattr__`` per
# field.  Treat instances as immutable.
@dataclass(slots=True, unsafe_hash=True)
class ReplicaView:
    """The per-replica tuple ``V = <i, F^I_Ri(d), F^D_Ri(d), ert_i>``.

    ``delayed_cdf`` is meaningful only for secondary replicas (a primary's
    state is always current, §5.1.1).
    """

    name: str
    is_primary: bool
    immediate_cdf: float
    delayed_cdf: float
    ert: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.immediate_cdf <= 1.0:
            raise ValueError(f"immediate cdf {self.immediate_cdf!r} outside [0, 1]")
        if not 0.0 <= self.delayed_cdf <= 1.0:
            raise ValueError(f"delayed cdf {self.delayed_cdf!r} outside [0, 1]")


@dataclass(slots=True, unsafe_hash=True)
class SelectionResult:
    """Outcome of a selection: the chosen replicas (sequencer excluded —
    the client handler appends it) plus the model's prediction."""

    replicas: tuple[str, ...]
    predicted_probability: float
    satisfied: bool

    def __len__(self) -> int:
        return len(self.replicas)


class SelectionStrategy:
    """Interface: map (candidates, QoS, staleness factor) to a replica set."""

    name = "abstract"

    def select(
        self,
        candidates: Sequence[ReplicaView],
        qos: QoSSpec,
        stale_factor: float,
    ) -> SelectionResult:
        raise NotImplementedError


class _PkAccumulator:
    """Incremental evaluation of ``P_K(d)`` (Equations 1–3).

    ``primCDF`` accumulates ``prod (1 - F^I)`` over included primaries;
    ``secImmedCDF``/``secDelayedCDF`` accumulate the corresponding products
    over included secondaries; the group staleness factor mixes them
    (Eq. 3) because one lazy multicast updates the whole secondary group.

    ``correlated_deferral`` replaces the deferred-term product with
    ``min_j (1 − F^D_j)``: stale secondaries all answer after the *same*
    lazy update, so their deferred response times are strongly correlated
    and redundancy among them adds almost nothing.  The paper's Eq. 3 uses
    the independent product (fine in its evaluation regime); see DESIGN.md
    §5a for when the correlated variant matters.
    """

    __slots__ = (
        "stale_factor",
        "correlated_deferral",
        "prim_cdf",
        "sec_immed_cdf",
        "sec_delayed_cdf",
    )

    def __init__(self, stale_factor: float, correlated_deferral: bool = False) -> None:
        if not 0.0 <= stale_factor <= 1.0:
            raise ValueError(f"stale factor {stale_factor!r} outside [0, 1]")
        self.stale_factor = stale_factor
        self.correlated_deferral = correlated_deferral
        self.prim_cdf = 1.0
        self.sec_immed_cdf = 1.0
        self.sec_delayed_cdf = 1.0

    def include(self, replica: ReplicaView) -> None:
        if replica.is_primary:
            self.prim_cdf *= 1.0 - replica.immediate_cdf
        else:
            self.sec_immed_cdf *= 1.0 - replica.immediate_cdf
            if self.correlated_deferral:
                self.sec_delayed_cdf = min(
                    self.sec_delayed_cdf, 1.0 - replica.delayed_cdf
                )
            else:
                self.sec_delayed_cdf *= 1.0 - replica.delayed_cdf

    def probability(self) -> float:
        sec_cdf = (
            self.sec_immed_cdf * self.stale_factor
            + self.sec_delayed_cdf * (1.0 - self.stale_factor)
        )
        return 1.0 - self.prim_cdf * sec_cdf


def sort_candidates(candidates: Sequence[ReplicaView]) -> list[ReplicaView]:
    """Line 2 of Algorithm 1: decreasing ``ert``; ties by decreasing CDF.

    A final name tie-break keeps runs reproducible.  The client's read path
    produces the same order without this sort (``Candidates.walk``).
    """
    return sorted(candidates, key=lambda r: (-r.ert, -r.immediate_cdf, r.name))


def set_success_probability(
    candidates: Sequence[ReplicaView],
    selected: Sequence[str],
    stale_factor: float,
    correlated_deferral: bool = False,
) -> float:
    """P(at least one member of ``selected`` meets the deadline), Eq. 1-3.

    Unlike :attr:`SelectionResult.predicted_probability` — which excludes
    the best-CDF member to model a single failure, making Algorithm 1's
    stopping rule deliberately conservative — this folds in *every* selected
    replica.  It is the forecast that should match observed outcomes when
    predictions are honest, so the calibration tracker scores this value,
    not the fault-tolerant one.
    """
    chosen = set(selected)
    acc = _PkAccumulator(stale_factor, correlated_deferral)
    for view in candidates:
        if view.name in chosen:
            acc.include(view)
    return acc.probability()


class StateBasedSelection(SelectionStrategy):
    """Algorithm 1: state-based replica selection.

    ``hot_spot_avoidance`` controls the line-2 visiting order: True (the
    paper's algorithm) visits replicas in decreasing ``ert``; False visits
    in decreasing CDF order only, which is the natural greedy alternative
    — and, as the hot-spot validation shows, concentrates load on
    whichever replicas currently look fastest ("hot spots", §5.3).

    ``correlated_deferral`` switches Eq. 3's deferred term from the
    paper's independent product to the correlation-aware minimum (see
    :class:`_PkAccumulator` and DESIGN.md §5a).
    """

    name = "state-based"

    def __init__(
        self,
        hot_spot_avoidance: bool = True,
        correlated_deferral: bool = False,
    ) -> None:
        self.hot_spot_avoidance = hot_spot_avoidance
        self.correlated_deferral = correlated_deferral
        if not hot_spot_avoidance:
            self.name = "state-based-no-ert"
        elif correlated_deferral:
            self.name = "state-based-correlated"

    def select(
        self,
        candidates: Union[Sequence[ReplicaView], Iterator[ReplicaView]],
        qos: QoSSpec,
        stale_factor: float,
    ) -> SelectionResult:
        """Run Algorithm 1 over ``candidates``.

        A sequence is sorted into the visiting order here.  An iterator is
        taken to arrive in line-2 order already: the client's reply-order
        walk, which builds each ``V`` tuple only when the loop asks for the
        next one, so a read pays only for the replicas it visits.
        """
        if isinstance(candidates, Iterator):
            ordered = candidates
        elif self.hot_spot_avoidance:
            ordered = iter(sort_candidates(candidates))
        else:
            ordered = iter(
                sorted(candidates, key=lambda r: (-r.immediate_cdf, r.name))
            )
        first = next(ordered, None)
        if first is None:
            return SelectionResult((), 0.0, satisfied=qos.min_probability == 0.0)
        acc = _PkAccumulator(stale_factor, self.correlated_deferral)
        target = qos.min_probability

        # Lines 3: seed K with the first candidate, which also starts as
        # maxCDFReplica — the member whose failure the test simulates by
        # excluding its distribution from the product.
        selected: list[ReplicaView] = [first]
        max_cdf_replica = first

        for replica in ordered:
            selected.append(replica)
            # Lines 6-11: always keep the best immediate CDF excluded;
            # fold the previous best (or this replica) into the products.
            if replica.immediate_cdf > max_cdf_replica.immediate_cdf:
                acc.include(max_cdf_replica)
                max_cdf_replica = replica
            else:
                acc.include(replica)
            probability = acc.probability()
            if probability >= target:
                # Line 13: an acceptable set (sequencer appended upstream).
                return SelectionResult(
                    tuple([r.name for r in selected]), probability, satisfied=True
                )
        # Line 16: not satisfiable — return every replica.
        probability = acc.probability()
        return SelectionResult(
            tuple([r.name for r in selected]),
            probability,
            satisfied=probability >= target,
        )
