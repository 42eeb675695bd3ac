"""A client's §5.3 candidate set — every primary but the sequencer, then
every secondary — and the selection step of its read path: filtered by the
degradation ladder and the φ-detector when the client has them, then run
through the strategy; for Algorithm 1 lazily, in line 2's decreasing-``ert``
order, so a read evaluates only the replicas it visits."""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import TYPE_CHECKING, Optional

from repro.core.qos import QoSSpec
from repro.core.selection import (
    ReplicaView,
    StateBasedSelection,
    set_success_probability,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.client import ClientHandler


class Candidates:
    """One client's candidate replicas and their evaluation."""

    def __init__(self, client: "ClientHandler") -> None:
        self.client = client
        # name -> is_primary in view order (primaries without the sequencer,
        # then secondaries), re-derived per view install; and those never
        # heard from, re-derived when the views change or a replica is
        # heard from for the first time.
        self.roles: dict[str, bool] = {}
        self._unheard: Optional[list[str]] = None
        self._heard_count = 0

    def refresh(self) -> None:
        """Re-derive the candidates from the client's installed views."""
        client = self.client
        views = client.views
        primary = views.get(client.groups.primary)
        secondary = views.get(client.groups.secondary)
        roles: dict[str, bool] = {}
        if primary is not None:
            sequencer = primary.leader if client.has_sequencer else None
            roles.update((m, True) for m in primary.members if m != sequencer)
        if secondary is not None:
            roles.update((m, False) for m in secondary.members)
        self.roles = roles
        self._unheard = None

    def select(self, qos: QoSSpec) -> tuple[tuple[str, ...], Optional[float]]:
        """The replicas a read with ``qos`` goes to, and — when a calibration
        tracker or a trace reads it — the set's success forecast."""
        client = self.client
        names = self.roles
        degradation = client.degradation
        if degradation is not None and degradation.prefer_secondaries:
            # Push read load off the update-serving primaries.
            secondaries = {n: False for n, primary in names.items() if not primary}
            if secondaries:
                names = secondaries
        if client.detector is not None:
            names = client.detector.eject(names)
        stale_factor = client.predictor.staleness_factor(
            qos.staleness_threshold, client.now
        )
        strategy = client.strategy
        visited: Optional[dict[str, ReplicaView]] = None
        if isinstance(strategy, StateBasedSelection) and strategy.hot_spot_avoidance:
            visited = {}
            result = strategy.select(
                self.walk(names, qos.deadline, visited), qos, stale_factor
            )
        else:
            candidates = self.views(names, qos.deadline)
            result = strategy.select(candidates, qos, stale_factor)
        predicted: Optional[float] = None
        if client.calibration is not None or client.trace.enabled:
            if visited is not None:  # the views the walk built, in view order
                candidates = [visited[n] for n in names if n in visited]
            # The calibration forecast folds in *all* selected replicas —
            # SelectionResult.predicted_probability deliberately excludes
            # the best one (fault tolerance) and would read conservative.
            predicted = set_success_probability(
                candidates,
                result.replicas,
                stale_factor,
                getattr(strategy, "correlated_deferral", False),
            )
        return result.replicas, predicted

    def walk(
        self,
        names: dict[str, bool],
        deadline: float,
        visited: dict[str, ReplicaView],
    ) -> Iterator[ReplicaView]:
        """The candidates ``names`` in Algorithm 1's line-2 order, each
        ``V`` tuple built only when the loop asks for it.

        Replicas never heard from come first (``ert`` = ∞), then the
        repository's reply order: oldest last reply first is decreasing
        ``ert``.  Candidates with equal ``ert`` are evaluated together and
        visited by decreasing ``F^I``, then name — :func:`~repro.core
        .selection.sort_candidates`' key, so the order is the sort's even
        where float rounding makes two ``ert`` values equal.  Every view built
        is also put in ``visited``.
        """
        client = self.client
        cdfs = client.predictor.cdfs_at(deadline)

        def ties(group: list[str], ert: float) -> list[ReplicaView]:
            views = []
            for name in group:
                primary = names[name]
                view = ReplicaView(name, primary, *cdfs(name, not primary), ert)
                visited[name] = view
                views.append(view)
            if len(views) > 1:
                views.sort(key=lambda v: (-v.immediate_cdf, v.name))
            return views

        unheard = [n for n in self._never_heard() if n in names]
        if unheard:
            yield from ties(unheard, math.inf)
        now = client.now
        group: list[str] = []
        group_ert = math.inf
        for name, stats in client.repository.by_last_reply.items():
            if name not in names:
                continue
            ert = now - stats.last_reply_at
            if ert != group_ert:
                if group:
                    yield from ties(group, group_ert)
                group = []
                group_ert = ert
            group.append(name)
        if group:
            yield from ties(group, group_ert)

    def _never_heard(self) -> list[str]:
        """The candidates with no read reply yet, in view order."""
        heard = self.client.repository.by_last_reply
        if self._unheard is None or self._heard_count != len(heard):
            self._unheard = [n for n in self.roles if n not in heard]
            self._heard_count = len(heard)
        return self._unheard

    def views(self, names: dict[str, bool], deadline: float) -> list[ReplicaView]:
        """Every candidate in ``names`` evaluated, in view order: the whole
        list, for a strategy that does not visit in ``ert`` order."""
        client = self.client
        primaries = [n for n, primary in names.items() if primary]
        secondaries = [n for n, primary in names.items() if not primary]
        primary_cdfs, secondary_pairs = client.predictor.candidate_cdfs(
            primaries, secondaries, deadline
        )
        ert = client.repository.ert
        now = client.now
        views = [
            ReplicaView(name, True, cdf, cdf, ert(name, now))
            for name, cdf in zip(primaries, primary_cdfs)
        ]
        views.extend(
            ReplicaView(name, False, immediate, delayed, ert(name, now))
            for name, (immediate, delayed) in zip(secondaries, secondary_pairs)
        )
        return views
