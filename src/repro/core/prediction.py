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

Caching (beyond the paper, see DESIGN.md "Prediction-cache architecture"):
the convolved distributions only change when a new measurement lands, yet
steady-state read bursts re-evaluate them on every request.  Each
replica's base pmf (``S ⊛ W`` shifted by ``G``) and deferred pmf
(``base ⊛ U``) are therefore cached, keyed on the sliding windows'
monotonically increasing versions plus the latest gateway delay, and
rebuilt only when that key changes.  The cache is bit-for-bit equivalent
to fresh recomputation (property-tested), so Figure 3/4 results are
unchanged — only faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.repository import ClientInfoRepository, ReplicaStats
from repro.obs.metrics import MetricsRegistry
from repro.stats.pmf import DEFAULT_QUANTUM, DiscretePmf
from repro.stats.sliding_window import SlidingWindow


@dataclass
class _ReplicaPmfCache:
    """Cached distributions for one replica, tagged with version keys.

    ``base_key`` is ``(ts_version, tq_version, latest_tg)`` — the complete
    set of inputs to the immediate-read pmf.  ``lazy_key`` extends it for
    the deferred pmf with the ``t_b`` window version (or the uniform
    fallback's interval).  A key mismatch means a measurement landed and
    the entry is stale.
    """

    base_key: tuple
    base_pmf: DiscretePmf
    lazy_key: Optional[tuple] = None
    full_pmf: Optional[DiscretePmf] = None


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
        # Registry-backed counters, exposed under their historical names via
        # properties.  These feed Figure 3 reports, so a missing registry
        # means a private enabled one rather than a no-op.
        if metrics is None:
            metrics = MetricsRegistry()
        self.metrics = metrics
        labels = metrics_labels or {}
        # evaluations: number of distribution computations (Fig. 3).
        self._m_evaluations = metrics.counter("predictor_evaluations", **labels)
        # Versioned pmf cache (same counter pattern as ``evaluations``):
        # a hit returns a previously convolved pmf, a miss rebuilds it, an
        # invalidation is a miss that found a stale entry to replace.
        self.use_cache = use_cache
        self._m_cache_hits = metrics.counter("predictor_cache_hits", **labels)
        self._m_cache_misses = metrics.counter("predictor_cache_misses", **labels)
        self._m_cache_invalidations = metrics.counter(
            "predictor_cache_invalidations", **labels
        )
        self._pmf_cache: dict[str, _ReplicaPmfCache] = {}
        self._uniform_lazy_cache: dict[tuple[float, float], DiscretePmf] = {}

    # ------------------------------------------------------------------
    # Registry-backed counters under their historical names
    # ------------------------------------------------------------------
    @property
    def evaluations(self) -> int:
        return self._m_evaluations.value

    @property
    def cache_hits(self) -> int:
        return self._m_cache_hits.value

    @property
    def cache_misses(self) -> int:
        return self._m_cache_misses.value

    @property
    def cache_invalidations(self) -> int:
        return self._m_cache_invalidations.value

    # ------------------------------------------------------------------
    # Response-time distributions (§5.2)
    # ------------------------------------------------------------------
    def response_cdfs(self, replica: str, deadline: float) -> tuple[float, float]:
        """``(F^I_{R_i}(d), F^D_{R_i}(d))`` for one replica.

        The immediate and deferred evaluations share the S*W*G convolution;
        the deferred one convolves in the lazy-wait pmf on top.
        """
        stats = self.repository.stats_for(replica)
        if not stats.has_history:
            return (self.bootstrap_cdf, self.bootstrap_cdf)
        self._m_evaluations.inc()
        base = self._immediate_pmf(replica, stats)
        immediate = base.cdf(deadline)
        delayed = self._deferred_pmf(replica, stats, base).cdf(deadline)
        return (immediate, delayed)

    def immediate_cdf(self, replica: str, deadline: float) -> float:
        """``F^I_{R_i}(d)`` alone (primary replicas never defer)."""
        stats = self.repository.stats_for(replica)
        if not stats.has_history:
            return self.bootstrap_cdf
        self._m_evaluations.inc()
        return self._immediate_pmf(replica, stats).cdf(deadline)

    def response_pmfs(
        self, replica: str
    ) -> tuple[Optional[DiscretePmf], Optional[DiscretePmf]]:
        """The full ``(immediate, deferred)`` response-time pmfs of a replica.

        ``(None, None)`` before any history exists (the cdf methods'
        ``bootstrap_cdf`` regime).  Rides the same versioned cache as the
        cdf evaluations, so a steady-state caller gets the previously
        convolved distributions back without recomputation.  This is the
        sampling substrate of the aggregated client tier: one pmf pair per
        selected replica, then vectorized inverse-CDF draws for the whole
        arrival batch.
        """
        stats = self.repository.stats_for(replica)
        if not stats.has_history:
            return (None, None)
        self._m_evaluations.inc()
        base = self._immediate_pmf(replica, stats)
        return base, self._deferred_pmf(replica, stats, base)

    def candidate_cdfs(
        self, primaries, secondaries, deadline: float
    ) -> tuple[list[float], list[tuple[float, float]]]:
        """Every candidate's cdf values for one read, in one call.

        Fuses the per-read loop the client gateway runs for Algorithm 1:
        ``immediate_cdf`` for each primary, ``response_cdfs`` for each
        secondary.  The body replays the scalar methods' exact sequence of
        repository lookups, cache operations, and counter increments, so
        the fused path is bit-identical to calling them one by one — it
        just does so without re-entering a Python method (and re-binding
        ``self`` attributes) per replica.
        """
        stats_for = self.repository.stats_for
        bootstrap = self.bootstrap_cdf
        inc = self._m_evaluations.inc
        primary_cdfs: list[float] = []
        for name in primaries:
            stats = stats_for(name)
            if not stats.has_history:
                primary_cdfs.append(bootstrap)
                continue
            inc()
            primary_cdfs.append(self._immediate_pmf(name, stats).cdf(deadline))
        secondary_pairs: list[tuple[float, float]] = []
        for name in secondaries:
            stats = stats_for(name)
            if not stats.has_history:
                secondary_pairs.append((bootstrap, bootstrap))
                continue
            inc()
            base = self._immediate_pmf(name, stats)
            secondary_pairs.append(
                (
                    base.cdf(deadline),
                    self._deferred_pmf(name, stats, base).cdf(deadline),
                )
            )
        return primary_cdfs, secondary_pairs

    # ------------------------------------------------------------------
    # Versioned pmf cache
    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/invalidation counters for benchmark reports."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "invalidations": self.cache_invalidations,
        }

    def clear_cache(self) -> None:
        self._pmf_cache.clear()
        self._uniform_lazy_cache.clear()

    def _immediate_pmf(self, replica: str, stats: ReplicaStats) -> DiscretePmf:
        key = (
            stats.ts_window.version,
            stats.tq_window.version,
            stats.latest_tg,
        )
        if self.use_cache:
            entry = self._pmf_cache.get(replica)
            if entry is not None:
                if entry.base_key == key:
                    self._m_cache_hits.inc()
                    return entry.base_pmf
                self._m_cache_invalidations.inc()
            self._m_cache_misses.inc()
        base = self._compute_immediate_pmf(stats)
        if self.use_cache:
            # Replacing the whole entry also drops the stale deferred pmf.
            self._pmf_cache[replica] = _ReplicaPmfCache(base_key=key, base_pmf=base)
        return base

    def _deferred_pmf(
        self, replica: str, stats: ReplicaStats, base: DiscretePmf
    ) -> DiscretePmf:
        if stats.tb_window:
            lazy_key = ("tb", stats.tb_window.version)
        else:
            lazy_key = ("uniform", self.lazy_update_interval)
        entry = self._pmf_cache.get(replica) if self.use_cache else None
        if entry is not None:
            if entry.full_pmf is not None:
                if entry.lazy_key == lazy_key:
                    self._m_cache_hits.inc()
                    return entry.full_pmf
                self._m_cache_invalidations.inc()
            self._m_cache_misses.inc()
        full = base.convolve(self._lazy_wait_pmf(stats))
        if entry is not None:
            entry.lazy_key = lazy_key
            entry.full_pmf = full
        return full

    def _compute_immediate_pmf(self, stats: ReplicaStats) -> DiscretePmf:
        service = self._window_pmf(stats.ts_window)
        queuing = self._window_pmf(stats.tq_window)
        gateway = (
            stats.latest_tg
            if stats.latest_tg is not None
            else self.default_gateway_delay
        )
        # G enters as its most recent value (§5.2.1): a shift of the grid.
        return service.convolve(queuing).shift(gateway)

    def _window_pmf(self, window: SlidingWindow) -> DiscretePmf:
        histogram = window.histogram(self.quantum)
        if histogram is not None:
            return DiscretePmf.from_histogram(self.quantum, *histogram)
        # Quantum mismatch between window and predictor: bin raw samples.
        return DiscretePmf.from_samples(window.samples(), self.quantum)

    def _lazy_wait_pmf(self, stats: ReplicaStats) -> DiscretePmf:
        if stats.tb_window:
            return self._window_pmf(stats.tb_window)
        # No deferred read observed yet: residual time to the next lazy
        # update for a uniformly random arrival phase is Uniform(0, T_L).
        # Constant for a given (T_L, quantum), so memoized unconditionally.
        key = (self.lazy_update_interval, self.quantum)
        pmf = self._uniform_lazy_cache.get(key)
        if pmf is None:
            bins = max(1, int(round(self.lazy_update_interval / self.quantum)))
            pmf = DiscretePmf(self.quantum, 0, np.full(bins, 1.0 / bins))
            self._uniform_lazy_cache[key] = pmf
        return pmf

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
