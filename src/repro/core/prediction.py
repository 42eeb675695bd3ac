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

Exact counts instead of pmfs (beyond the paper, see DESIGN.md §7):
selection needs two numbers per replica, not two distributions.  Every
window sample is an integer bin, so ``F^I(d)`` is the *count* of ``(s, w)``
pairs with ``s + w + g <= d`` over ``n_S * n_W`` (``F^D(d)`` adds ``u``),
counted with a few ``bisect`` calls off the windows' sorted bins and
divided once, correctly rounded.  Nothing is built or cached per read; the
values behind :meth:`ResponseTimePredictor.candidate_cdfs` and the pmfs of
:meth:`ResponseTimePredictor.response_pmfs` — the one place a
:class:`~repro.stats.pmf.DiscretePmf` is built — are memoised.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.repository import ClientInfoRepository, ReplicaStats
from repro.obs.metrics import MetricsRegistry
from repro.stats.pmf import CountHistogram, DiscretePmf
from repro.stats.sliding_window import SlidingWindow


@dataclass
class _SamplingPmfs:
    """One replica's ``(immediate, deferred)`` pmfs, valid while ``key``
    (``ts``/``tq`` versions, gateway bins, ``tb`` version, uniform bins)
    holds; ``base``, the counts of ``S ⊛ W``, while ``key[:2]`` does."""

    key: tuple[int, int, int, int, int]
    base: CountHistogram
    pmfs: tuple[DiscretePmf, DiscretePmf]


class ResponseTimePredictor:
    """Evaluates ``F^I_{R_i}(d)``, ``F^D_{R_i}(d)``, and the staleness factor."""

    def __init__(
        self,
        repository: ClientInfoRepository,
        lazy_update_interval: float,
        default_gateway_delay: float = 0.001,
        bootstrap_cdf: float = 1.0,
        staleness_model: Optional["StalenessModel"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        metrics_labels: Optional[dict] = None,
    ) -> None:
        if lazy_update_interval <= 0:
            raise ValueError(
                f"lazy interval must be positive, got {lazy_update_interval!r}"
            )
        if not 0.0 <= bootstrap_cdf <= 1.0:
            raise ValueError(f"bootstrap cdf {bootstrap_cdf!r} outside [0, 1]")
        from repro.core.staleness import PoissonStalenessModel

        self.repository = repository
        self.lazy_update_interval = lazy_update_interval
        # The one grid: the repository's windows bin their samples on it.
        self.quantum = repository.quantum
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
        # Lookups of the two memos below: a hit or a miss each, and an
        # invalidation when a miss replaces a stale slot.
        self.cache_hits = metrics.counter("predictor_cache_hits", **labels)
        self.cache_misses = metrics.counter("predictor_cache_misses", **labels)
        self.cache_invalidations = metrics.counter(
            "predictor_cache_invalidations", **labels
        )
        # Value memo behind candidate_cdfs: replica -> (key, (F^I, F^D)),
        # the key being every input _evaluate read to produce the pair.
        self._memo: dict[str, tuple[tuple, tuple[float, float]]] = {}
        # Sampling pmfs behind response_pmfs, per replica.
        self._pmfs: dict[str, _SamplingPmfs] = {}

    # ------------------------------------------------------------------
    # Response-time distributions (§5.2)
    # ------------------------------------------------------------------
    def response_cdfs(self, replica: str, deadline: float) -> tuple[float, float]:
        """``(F^I_{R_i}(d), F^D_{R_i}(d))`` for one replica.

        Both count over the same windows; the deferred value additionally
        counts against the lazy-wait term.
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

        A candidate none of whose inputs moved since the previous call is
        answered from the value memo (one dict lookup, one tuple compare)
        and credited, after the loop, as the evaluation it stands for.  A
        candidate with no history yet gets the bootstrap value and makes no
        lookup.  The scalar methods and :meth:`cdfs_at` neither read nor
        write the memo, so a question at another deadline cannot evict a
        slot.
        """
        k = self._deadline_bin(deadline)
        n_wait = self._uniform_bins()
        evaluate = self._evaluate
        stats_for = self.repository.stats_for
        memo = self._memo
        primary_pairs: list[tuple[float, float]] = []
        secondary_pairs: list[tuple[float, float]] = []
        hits = misses = stale = 0
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
                    misses += 1
                    stale += slot is not None
                    memo[name] = (key, pair)
                pairs.append(pair)
        self.evaluations.inc(hits)
        self.cache_hits.inc(hits)
        self.cache_misses.inc(misses)
        self.cache_invalidations.inc(stale)
        return [pair[0] for pair in primary_pairs], secondary_pairs

    def response_pmfs(
        self, replica: str
    ) -> tuple[Optional[DiscretePmf], Optional[DiscretePmf]]:
        """The full ``(immediate, deferred)`` response-time pmfs of a replica.

        ``(None, None)`` before any history exists (the cdf methods'
        ``bootstrap_cdf`` regime).  Built from the exact counts of
        ``S ⊛ W`` and kept until the windows, the gateway delay or the
        lazy-wait term change.  This is what the aggregated client tier
        resolves a batch from — one pmf pair per selected replica, folded
        into the law of the batch's first reply — and the only place the
        predictor builds a :class:`DiscretePmf`.
        """
        stats = self.repository.stats_for(replica)
        if not stats.has_history:
            return (None, None)
        self.evaluations.inc()
        waits = stats.tb_window
        key = (
            stats.ts_window.version,
            stats.tq_window.version,
            self._gateway_bins(stats),
            waits.version,
            0 if waits else self._uniform_bins(),
        )
        entry = self._pmfs.get(replica)
        if entry is not None and entry.key == key:
            self.cache_hits.inc()
            return entry.pmfs
        self.cache_misses.inc()
        if entry is not None:
            self.cache_invalidations.inc()
        if entry is not None and entry.key[:2] == key[:2]:
            base = entry.base
        else:
            base = _counts(stats.ts_window).convolve(_counts(stats.tq_window))
        quantum = self.quantum
        _, _, gateway, _, n_wait = key
        immediate = DiscretePmf.from_histogram(
            quantum, base.offset + gateway, base.counts
        )
        if waits:
            lazy_wait = DiscretePmf.from_samples(waits.samples(), quantum)
        else:
            lazy_wait = DiscretePmf(quantum, 0, np.ones(n_wait))
        pmfs = (immediate, immediate.convolve(lazy_wait))
        self._pmfs[replica] = _SamplingPmfs(key, base, pmfs)
        return pmfs

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
        With ``S`` the ``t_s`` window's sorted bins, ``c_W`` the ``t_q``
        window's bin counts and ``room`` what ``G`` leaves of ``k``:

        * ``F^I`` counts ``Σ_w c_W(w) · #{s ≤ room − w}``;
        * ``F^D`` with ``t_b`` bins ``c_U``, ``Σ_{w,u} c_W(w) · c_U(u) ·
          #{s ≤ room − w − u}``;
        * ``F^D`` with Uniform(0, ``T_L``) on ``n`` bins: each ``s`` meets
          ``clip(room − w − s + 1, 0, n)`` of them, two ``bisect`` per ``w``.
        """
        stats = self.repository.stats_for(replica)
        if not stats.has_history:
            return (self.bootstrap_cdf, self.bootstrap_cdf)
        self.evaluations.inc()
        service = stats.ts_window.sorted_bins
        queuing = stats.tq_window
        gateway = self._gateway_bins(stats)
        floor = service[0] + queuing.sorted_bins[0] + gateway  # R's first bin
        if deadline < floor * self.quantum:
            return (0.0, 0.0)
        room = k - gateway  # bins left for S + W (+ U)
        pairs = len(service) * len(queuing)
        met = 0
        for w, count in queuing.bin_counts.items():
            met += count * bisect_right(service, room - w)
        immediate = met / pairs
        if not deferred:
            return (immediate, immediate)
        waits = stats.tb_window
        if waits:
            # U is the recorded t_b history: one count per window sample.
            if deadline < (floor + waits.sorted_bins[0]) * self.quantum:
                return (immediate, 0.0)
            w_bins, w_counts = _bins_and_counts(queuing)
            u_bins, u_counts = _bins_and_counts(waits)
            fits = np.array(service).searchsorted(
                np.subtract.outer(room - w_bins, u_bins), side="right"
            )
            met = int(w_counts @ fits @ u_counts)
            return (immediate, met / (pairs * len(waits)))
        # No deferred read observed yet: the residual time to the next lazy
        # update for a uniformly random arrival phase is Uniform(0, T_L).
        if n_wait is None:
            n_wait = self._uniform_bins()
        prefix = [0, *accumulate(service)]  # prefix[i] = sum(S[:i])
        met = 0
        for w, count in queuing.bin_counts.items():
            top = room - w
            whole = bisect_right(service, top + 1 - n_wait)  # meet all n bins
            some = bisect_right(service, top)
            met += count * (
                whole * n_wait
                + (some - whole) * (top + 1)
                - (prefix[some] - prefix[whole])
            )
        return (immediate, met / (pairs * n_wait))

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


def _counts(window: SlidingWindow) -> CountHistogram:
    """A window's bins as a :class:`CountHistogram`."""
    return CountHistogram(*window.histogram(), len(window))


def _bins_and_counts(window: SlidingWindow) -> tuple[np.ndarray, np.ndarray]:
    """A window's distinct bins and their counts, as two ``int64`` arrays."""
    bin_counts = window.bin_counts
    size = len(bin_counts)
    return (
        np.fromiter(bin_counts.keys(), np.int64, size),
        np.fromiter(bin_counts.values(), np.int64, size),
    )
