"""Probabilistic models: response-time distributions and staleness factor.

§5.2: the immediate-read response time of replica *i* is
``R_i = S_i + W_i + G_i`` and its distribution ``F^I_{R_i}`` is evaluated
as the discrete convolution of the pmfs of ``S_i`` and ``W_i`` (relative
frequencies over the sliding windows) with the most recently recorded
gateway delay ``G_i`` (a point mass).  A deferred read adds the lazy-wait
term ``U_i`` (``R_i = S_i + W_i + G_i + U_i``) whose pmf comes from the
recorded ``t_b`` history.

§5.1.3 / Eq. 4: the staleness factor of the secondary group is the Poisson
CDF ``P(N_u(t_l) <= a)`` with mean ``lambda_u * t_l``.

Prediction quality notes:

* before any history exists for a replica, the model returns an optimistic
  CDF of 1.0 — the ``ert``-sorted selection order then naturally schedules
  unknown replicas early, which bootstraps their windows (the paper starts
  measuring from the first requests in the same way);
* before any deferred read has been observed, ``U`` falls back to a
  Uniform(0, T_L) pmf — exactly the distribution of the residual time to
  the next lazy update seen by a request arriving at a random phase.

Exact counts instead of pmfs (beyond the paper, see DESIGN.md
"Prediction-cache architecture"): selection needs two numbers per replica,
not two distributions, and every term is an integer histogram of window
samples.  ``F^I(d)`` is therefore the *count* of ``(s, w)`` sample pairs
with ``s + w + g <= d`` over ``n_S * n_W``, and ``F^D(d)`` the count of
``(s, w, u)`` triples over ``n_S * n_W * n_U`` — integer arithmetic on the
grid and one correctly rounded division, so the values are the floats
nearest the exact rationals and do not depend on summation order.  Per
replica the counts of ``S ⊛ W`` (and their running sum) are cached, keyed
on the two windows' versions only: ``G`` is an integer bin offset applied
at evaluation time, so a reply invalidates nothing.  A read evaluates
only the candidates Algorithm 1 visits (:meth:`ResponseTimePredictor
.cdfs_at`); behind :meth:`ResponseTimePredictor.candidate_cdfs`, which
evaluates every candidate, the two *values* are memoised per replica,
keyed on everything an evaluation reads.  A
:class:`~repro.stats.pmf.DiscretePmf` is materialized from the same counts
only by :meth:`ResponseTimePredictor.response_pmfs`, for sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.repository import ClientInfoRepository, ReplicaStats
from repro.obs.metrics import MetricsRegistry
from repro.stats.pmf import (
    DEFAULT_QUANTUM,
    CountHistogram,
    DiscretePmf,
    quantize_bins,
)
from repro.stats.sliding_window import SlidingWindow


@dataclass
class _ReplicaCounts:
    """Cached exact counts for one replica, tagged with their version key.

    ``key`` is ``(ts_version, tq_version)`` — the complete set of inputs
    to ``base``, the counts of ``S ⊛ W``; a mismatch means a measurement
    landed and the entry is stale.  ``wait_bins`` are the sorted grid bins
    of the ``t_b`` samples as of ``waits_version``.  ``pmfs`` is the
    ``(immediate, deferred)`` pair materialized for sampling, valid while
    ``pmfs_key`` (gateway bins and lazy-wait term) still describes the
    repository.
    """

    key: tuple[int, int]
    base: CountHistogram
    waits_version: int = -1
    wait_bins: Optional[np.ndarray] = None
    pmfs_key: Optional[tuple[int, int, int]] = None
    pmfs: Optional[tuple[DiscretePmf, DiscretePmf]] = None


class ResponseTimePredictor:
    """Evaluates ``F^I_{R_i}(d)``, ``F^D_{R_i}(d)``, and the staleness factor."""

    def __init__(
        self,
        repository: ClientInfoRepository,
        lazy_update_interval: float,
        quantum: float = DEFAULT_QUANTUM,
        default_gateway_delay: float = 0.001,
        bootstrap_cdf: float = 1.0,
        staleness_model: Optional["StalenessModel"] = None,
        use_cache: bool = True,
        metrics: Optional["MetricsRegistry"] = None,
        metrics_labels: Optional[dict] = None,
    ) -> None:
        if lazy_update_interval <= 0:
            raise ValueError(
                f"lazy interval must be positive, got {lazy_update_interval!r}"
            )
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum!r}")
        if not 0.0 <= bootstrap_cdf <= 1.0:
            raise ValueError(f"bootstrap cdf {bootstrap_cdf!r} outside [0, 1]")
        from repro.core.staleness import PoissonStalenessModel

        self.repository = repository
        self.lazy_update_interval = lazy_update_interval
        self.quantum = quantum
        self.default_gateway_delay = default_gateway_delay
        self.bootstrap_cdf = bootstrap_cdf
        self.staleness_model = staleness_model or PoissonStalenessModel()
        # Registry counters.  These feed Figure 3 reports, so a missing
        # registry means a private enabled one rather than a no-op.
        if metrics is None:
            metrics = MetricsRegistry()
        self.metrics = metrics
        labels = metrics_labels or {}
        # evaluations: number of distribution computations (Fig. 3).
        self.evaluations = metrics.counter("predictor_evaluations", **labels)
        # Versioned count cache, one lookup per evaluation: a hit reuses
        # the S ⊛ W counts, a miss rebuilds them, an invalidation is a miss
        # that found a stale entry to replace.
        self.use_cache = use_cache
        self.cache_hits = metrics.counter("predictor_cache_hits", **labels)
        self.cache_misses = metrics.counter("predictor_cache_misses", **labels)
        self.cache_invalidations = metrics.counter(
            "predictor_cache_invalidations", **labels
        )
        self._cache: dict[str, _ReplicaCounts] = {}
        # Value memo behind candidate_cdfs: replica -> (key, (F^I, F^D)),
        # the key being every input _evaluate read to produce the pair.
        self._memo: dict[str, tuple[tuple, tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    # Response-time distributions (§5.2)
    # ------------------------------------------------------------------
    def response_cdfs(self, replica: str, deadline: float) -> tuple[float, float]:
        """``(F^I_{R_i}(d), F^D_{R_i}(d))`` for one replica.

        Both read the same cached ``S ⊛ W`` counts; the deferred value
        additionally counts against the lazy-wait term.
        """
        return self._evaluate(replica, deadline, self._deadline_bin(deadline), True)

    def immediate_cdf(self, replica: str, deadline: float) -> float:
        """``F^I_{R_i}(d)`` alone (primary replicas never defer)."""
        return self._evaluate(replica, deadline, self._deadline_bin(deadline), False)[0]

    def cdfs_at(self, deadline: float) -> Callable[[str, bool], tuple[float, float]]:
        """One read's evaluator ``(replica, deferred) -> (F^I(d), F^D(d))``,
        with the deadline binned and ``T_L`` resolved once: the client's
        walk calls it for each candidate Algorithm 1 visits, and no other."""
        k = self._deadline_bin(deadline)
        n_wait = self._uniform_bins()
        evaluate = self._evaluate
        return lambda name, deferred: evaluate(name, deadline, k, deferred, n_wait)

    def candidate_cdfs(
        self, primaries, secondaries, deadline: float
    ) -> tuple[list[float], list[tuple[float, float]]]:
        """Every candidate's cdf values for one read, in one call, for a
        strategy that takes the whole list (the baselines, the no-``ert``
        ablation, the aggregated client tier): :meth:`cdfs_at`'s values.

        With the cache on, a candidate none of whose inputs moved since the
        previous call is answered from the value memo (one dict lookup, one
        tuple compare) and credited, after the loop, as the evaluation and
        count-cache hit it stands for: its key pins both window versions.
        The scalar methods and :meth:`cdfs_at` neither read nor write the
        memo, so a question at another deadline cannot evict a slot.
        """
        k = self._deadline_bin(deadline)
        n_wait = self._uniform_bins()
        evaluate = self._evaluate
        stats_for = self.repository.stats_for
        memo = self._memo if self.use_cache else {}  # off: no slot survives
        primary_pairs: list[tuple[float, float]] = []
        secondary_pairs: list[tuple[float, float]] = []
        hits = 0
        for names, deferred, pairs in (
            (primaries, False, primary_pairs),
            (secondaries, True, secondary_pairs),
        ):
            for name in names:
                stats = stats_for(name)
                key = (
                    stats.ts_window.version,
                    stats.tq_window.version,
                    stats.tb_window.version,
                    stats.latest_tg,
                    deadline,
                    n_wait,
                    deferred,
                )
                slot = memo.get(name)
                if slot is not None and slot[0] == key:
                    hits += 1
                    pairs.append(slot[1])
                    continue
                pair = evaluate(name, deadline, k, deferred, n_wait)
                if stats.has_history:  # bootstrap values are not evaluations
                    memo[name] = (key, pair)
                pairs.append(pair)
        self.evaluations.inc(hits)
        self.cache_hits.inc(hits)
        return [pair[0] for pair in primary_pairs], secondary_pairs

    def response_pmfs(
        self, replica: str
    ) -> tuple[Optional[DiscretePmf], Optional[DiscretePmf]]:
        """The full ``(immediate, deferred)`` response-time pmfs of a replica.

        ``(None, None)`` before any history exists (the cdf methods'
        ``bootstrap_cdf`` regime).  Materialized from the cached counts the
        cdf methods read, and kept with them until the counts, the gateway
        delay or the lazy-wait term change.  This is what the aggregated
        client tier resolves a batch from — one pmf pair per selected
        replica, folded into the law of the batch's first reply — and the
        only place the predictor builds a :class:`DiscretePmf`.
        """
        stats = self.repository.stats_for(replica)
        if not stats.has_history:
            return (None, None)
        self.evaluations.inc()
        entry = self._counts(replica, stats)
        gateway = self._gateway_bins(stats)
        waits = stats.tb_window
        n_wait = 0 if waits else self._uniform_bins()
        key = (gateway, waits.version, n_wait)
        if entry.pmfs_key != key:
            quantum = self.quantum
            base = entry.base
            immediate = DiscretePmf.from_histogram(
                quantum, base.offset + gateway, base.counts
            )
            if waits:
                lazy_wait = DiscretePmf.from_samples(waits.samples(), quantum)
            else:
                lazy_wait = DiscretePmf(quantum, 0, np.ones(n_wait))
            entry.pmfs_key = key
            entry.pmfs = (immediate, immediate.convolve(lazy_wait))
        return entry.pmfs

    # ------------------------------------------------------------------
    # Exact evaluation from window counts
    # ------------------------------------------------------------------
    def _deadline_bin(self, deadline: float) -> int:
        """Last grid bin a response may land in (float-error tolerant)."""
        return math.floor(deadline / self.quantum + 1e-9)

    def _gateway_bins(self, stats: ReplicaStats) -> int:
        """``G`` as a grid offset: its most recent value (§5.2.1), binned."""
        gateway = (
            stats.latest_tg
            if stats.latest_tg is not None
            else self.default_gateway_delay
        )
        return int(round(gateway / self.quantum))

    def _uniform_bins(self) -> int:
        """Bins of the Uniform(0, T_L) lazy wait, for the T_L in force."""
        interval = self.repository.lazy_interval(self.lazy_update_interval)
        return max(1, int(round(interval / self.quantum)))

    def _evaluate(
        self,
        replica: str,
        deadline: float,
        k: int,
        deferred: bool,
        n_wait: Optional[int] = None,
    ) -> tuple[float, float]:
        """``(F^I(d), F^D(d))`` with ``k`` the deadline's bin.

        ``F^D`` is only computed when ``deferred`` is set (primaries never
        defer); otherwise the immediate value stands in for it.  ``n_wait``
        is :meth:`_uniform_bins` when the caller has already resolved it.
        """
        stats = self.repository.stats_for(replica)
        if not stats.has_history:
            return (self.bootstrap_cdf, self.bootstrap_cdf)
        self.evaluations.inc()
        entry = self._counts(replica, stats)
        base = entry.base
        gateway = self._gateway_bins(stats)
        floor = base.offset + gateway  # first bin S + W + G can land in
        if deadline < floor * self.quantum:
            return (0.0, 0.0)
        room = k - gateway  # bins left for S + W (+ U)
        immediate = base.count_le(room) / base.total
        if not deferred:
            return (immediate, immediate)
        waits = stats.tb_window
        if waits:
            # U is the recorded t_b history: one count per window sample.
            if entry.waits_version != waits.version:
                entry.waits_version = waits.version
                entry.wait_bins = np.sort(
                    quantize_bins(waits.samples(), self.quantum)
                )
            wait_bins = entry.wait_bins
            if deadline < (floor + int(wait_bins[0])) * self.quantum:
                return (immediate, 0.0)
            met = base.count_sum_le(room, wait_bins)
            return (immediate, met / (base.total * wait_bins.size))
        # No deferred read observed yet: the residual time to the next lazy
        # update for a uniformly random arrival phase is Uniform(0, T_L).
        if n_wait is None:
            n_wait = self._uniform_bins()
        met = base.count_sum_le_uniform(room, n_wait)
        return (immediate, met / (base.total * n_wait))

    # ------------------------------------------------------------------
    # Versioned count cache
    # ------------------------------------------------------------------
    def _counts(self, replica: str, stats: ReplicaStats) -> _ReplicaCounts:
        key = (stats.ts_window.version, stats.tq_window.version)
        if self.use_cache:
            entry = self._cache.get(replica)
            if entry is not None:
                if entry.key == key:
                    self.cache_hits.inc()
                    return entry
                self.cache_invalidations.inc()
            self.cache_misses.inc()
        entry = _ReplicaCounts(
            key,
            self._window_counts(stats.ts_window).convolve(
                self._window_counts(stats.tq_window)
            ),
        )
        if self.use_cache:
            self._cache[replica] = entry
        return entry

    def _window_counts(self, window: SlidingWindow) -> CountHistogram:
        histogram = window.histogram(self.quantum)
        if histogram is not None:
            return CountHistogram(*histogram, len(window))
        # Quantum mismatch between window and predictor: bin raw samples.
        return CountHistogram.from_samples(window.samples(), self.quantum)

    # ------------------------------------------------------------------
    # Staleness factor (§5.1.3, Eq. 4)
    # ------------------------------------------------------------------
    def staleness_factor(self, staleness_threshold: int, now: float) -> float:
        """``P(A_s(t) <= a)`` for the secondary group at time ``now``.

        Delegates to the configured :class:`~repro.core.staleness
        .StalenessModel` (Equation 4's Poisson model by default; §5.1.3
        notes non-Poisson variants are possible and
        :mod:`repro.core.staleness` provides them).
        """
        return self.staleness_model.staleness_factor(
            staleness_threshold,
            self.repository,
            now,
            self.lazy_update_interval,
        )
