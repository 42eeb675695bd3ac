"""Fluid-approximation client tier: pooled arrivals for huge populations.

The discrete per-client event loop tops out around ~10^5 kernel events per
second, which puts million-user cells four orders of magnitude out of
reach.  This module replaces *populations* of statistically identical
clients with one :class:`AggregatedClientPool` per (class, priority,
region) population, exploiting two classical results:

* **Poisson superposition** — the merged arrival stream of ``N``
  independent Poisson clients at per-client rate ``λ`` is one Poisson
  process at rate ``N·λ``.  The pool therefore draws whole *batches* of
  arrivals (count ~ Poisson(Λ·W), times uniform in the window) instead of
  simulating clients;
* **the paper's own §5 model** — the per-replica response-time pmfs
  (``S ⊛ W`` shifted by ``G``; deferred adds the lazy wait ``U``) and the
  Poisson staleness factor of Eq. 4 describe outcome distributions well
  (the calibration experiments pin this), so the pool *draws* outcomes
  from those distributions instead of routing every request through the
  simulated network.

Per batch the pool runs replica selection (Algorithm 1) **once** over the
shared gateway's candidate views, then resolves every modelled arrival of
the batch from the closed-form law of its first reply — Eq. 1 over the
selected replicas' pmfs, mixed over fresh and stale secondaries by Eq. 3
(:func:`repro.stats.pmf.first_reply_law`): the number of arrivals that see
fresh secondaries is one Binomial draw at Eq. 4 averaged over the batch's
lazy-cycle phases (one lazy multicast refreshes the whole secondary
group), and each class's outcomes are one multinomial draw over
(first-reply bin, deferred or not).  A batch therefore costs
O(selected replicas · bins) whatever population it stands for.  Results
are folded into the ordinary ``client_*`` telemetry through
:meth:`ClientHandler.record_aggregate_batch`.

A small *probe* subsample per batch is issued as real discrete requests —
these keep the load-bearing machinery alive: sliding windows, gateway
delays, ``ert``, performance broadcasts, the sequencer, and the lazy
publisher all continue to run on genuine traffic, which is exactly what
the sampled distributions are conditioned on.

Validity envelope (see DESIGN.md §13): the fluid tier assumes the cell
operates in the utilization regime its probes measure — i.e. capacity is
provisioned with population, so modeled requests would not have shifted
the queueing distributions had they been real.  ``repro scale
--validate`` checks the approximation against the discrete simulator via
Wilson-interval overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.client import ClientHandler
from repro.core.qos import QoSSpec
from repro.core.requests import ReadOutcome
from repro.sim.kernel import Simulator
from repro.sim.rng import seed_for
from repro.stats.pmf import first_reply_law
from repro.stats.poisson import poisson_cdf, poisson_cdf_phase_mean
from repro.workloads.generators import ArrivalRateController


@dataclass(frozen=True)
class PopulationSpec:
    """One homogeneous client population, aggregated into a single pool.

    ``read_rate``/``update_rate`` are *per-client* arrival rates in
    requests per second; the pool's merged rate is ``clients`` times
    that.  ``arrival="bursty"`` models clients that are active only a
    ``duty_cycle`` fraction of the time but burst at ``rate/duty_cycle``
    while active: the number of active clients is redrawn per batch
    (Binomial), which preserves the mean rate while over-dispersing
    counts — at large ``N`` it converges back to Poisson, exactly the
    Palm–Khintchine behaviour of superposed on/off sources.
    """

    name: str
    clients: int
    qos: QoSSpec
    read_rate: float
    update_rate: float = 0.0
    arrival: str = "poisson"  # "poisson" | "bursty"
    duty_cycle: float = 1.0
    region: str = "local"
    priority: Optional[str] = None

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"population needs clients >= 1, got {self.clients!r}")
        if self.read_rate < 0 or self.update_rate < 0:
            raise ValueError("negative arrival rate")
        if self.read_rate == 0 and self.update_rate == 0:
            raise ValueError("population with no traffic at all")
        if self.arrival not in ("poisson", "bursty"):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError(f"duty cycle {self.duty_cycle!r} outside (0, 1]")

    @property
    def total_read_rate(self) -> float:
        return self.clients * self.read_rate

    @property
    def total_update_rate(self) -> float:
        return self.clients * self.update_rate


@dataclass
class AggregateStats:
    """Outcome accounting of one pool: modeled batches plus probes.

    ``response_hist`` counts resolved response times on the pmf grid
    (``quantum``-second bins); its final slot is the beyond-grid
    overflow.  ``unresolved`` are modeled arrivals whose selected
    replicas had no history yet (sampled as "no reply": timing failures
    with no response time), mirroring the discrete garbage-collect path.
    """

    quantum: float
    response_hist: np.ndarray
    reads_modeled: int = 0
    failures_modeled: int = 0
    deferred_modeled: int = 0
    selected_modeled: int = 0
    response_sum: float = 0.0
    unresolved: int = 0
    updates_modeled: int = 0
    batches: int = 0
    warmup_skipped: int = 0
    probe_reads: int = 0
    probe_failures: int = 0
    probe_deferred: int = 0
    probe_selected: int = 0
    probe_updates: int = 0
    probe_response_times: list = field(default_factory=list)

    # -- combined (modeled + probe) views --------------------------------
    @property
    def reads(self) -> int:
        return self.reads_modeled + self.probe_reads

    @property
    def timing_failures(self) -> int:
        return self.failures_modeled + self.probe_failures

    @property
    def deferred(self) -> int:
        return self.deferred_modeled + self.probe_deferred

    @property
    def failure_probability(self) -> float:
        return self.timing_failures / self.reads if self.reads else 0.0

    @property
    def deferred_fraction(self) -> float:
        return self.deferred / self.reads if self.reads else 0.0

    @property
    def avg_replicas_selected(self) -> float:
        if not self.reads:
            return 0.0
        return (self.selected_modeled + self.probe_selected) / self.reads

    @property
    def mean_response_time(self) -> float:
        resolved = int(self.response_hist.sum()) + len(self.probe_response_times)
        if resolved == 0:
            return 0.0
        total = self.response_sum + sum(self.probe_response_times)
        return total / resolved

    # -- modeled-only views --------------------------------------------
    # The validation comparison uses these: the probe subsample is itself
    # discretely simulated, so folding it in would dilute the test of the
    # analytic model with data generated by the reference mechanism.
    @property
    def modeled_failure_probability(self) -> float:
        if not self.reads_modeled:
            return 0.0
        return self.failures_modeled / self.reads_modeled

    @property
    def modeled_deferred_fraction(self) -> float:
        if not self.reads_modeled:
            return 0.0
        return self.deferred_modeled / self.reads_modeled

    def _grid_counts_at(self, xs: np.ndarray) -> np.ndarray:
        """Cumulative grid-histogram counts P-numerator at each x."""
        grid_counts = self.response_hist[:-1]
        cum = np.cumsum(grid_counts)
        # Grid bin i holds responses sampled at value i*q, so the count
        # with response <= x is cum[floor(x/q)].
        bins = np.floor(xs / self.quantum + 1e-9).astype(int)
        bins = np.clip(bins, -1, grid_counts.size - 1)
        padded = np.concatenate(([0.0], cum))
        return padded[bins + 1]

    def modeled_response_cdf(self, xs) -> np.ndarray:
        """Empirical P(response <= x) over modeled reads only."""
        xs = np.asarray(xs, dtype=float)
        if self.reads_modeled == 0:
            return np.zeros(xs.shape)
        return self._grid_counts_at(xs) / self.reads_modeled

    def response_cdf(self, xs) -> np.ndarray:
        """Empirical P(response <= x) over *all* reads at each x.

        Never-resolved reads count in the denominator (their response
        time is effectively infinite), matching how the discrete tier's
        outcome lists are summarized for the validation comparison.
        """
        xs = np.asarray(xs, dtype=float)
        if self.reads == 0:
            return np.zeros(xs.shape)
        counts = self._grid_counts_at(xs)
        probe = np.asarray(sorted(self.probe_response_times), dtype=float)
        if probe.size:
            counts = counts + np.searchsorted(probe, xs, side="right")
        return counts / self.reads


class AggregatedClientPool:
    """One pooled-arrival process standing in for a whole population.

    Ticks once per ``batch_window`` seconds of virtual time.  Each tick:

    1. draws the batch's read/update arrival counts from the merged
       process (rate scaled by the optional
       :class:`~repro.workloads.generators.ArrivalRateController`, so
       chaos load storms modulate pools exactly like discrete
       generators);
    2. issues up to ``probe_reads``/``probe_updates`` of them as real
       requests through the shared gateway handler, bulk-inserted with
       :meth:`Simulator.schedule_batch`;
    3. runs Algorithm 1 once over the gateway's candidate views and
       draws the remaining arrivals' outcomes from the first-reply law
       of the §5 model (see module docstring);
    4. folds the batch into :class:`AggregateStats` and the gateway's
       standard telemetry counters.

    The staleness inputs are analytic: the pool knows its own true
    update rate (the repository's broadcast-based estimate would only
    see probe updates), and the batch's lazy-cycle phases are the
    repository's observed phase plus the batch window, wrapped at ``T_L``.
    """

    def __init__(
        self,
        sim: Simulator,
        handler: ClientHandler,
        spec: PopulationSpec,
        duration: float,
        *,
        batch_window: float = 0.25,
        probe_reads: int = 1,
        probe_updates: int = 1,
        seed: int = 0,
        warmup: float = 0.0,
        rate_controller: Optional[ArrivalRateController] = None,
        response_grid_max: Optional[float] = None,
    ) -> None:
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration!r}")
        if batch_window <= 0:
            raise ValueError(f"batch window must be positive, got {batch_window!r}")
        if probe_reads < 0 or probe_updates < 0:
            raise ValueError("negative probe count")
        if warmup < 0 or warmup >= duration:
            raise ValueError(f"warmup {warmup!r} outside [0, duration)")
        if response_grid_max is not None and response_grid_max <= 0:
            raise ValueError(
                f"response grid must be positive, got {response_grid_max!r}"
            )
        self.sim = sim
        self.handler = handler
        self.spec = spec
        self.duration = duration
        self.batch_window = batch_window
        self.probe_reads = probe_reads
        self.probe_updates = probe_updates
        self.rate_controller = rate_controller
        self._rng = np.random.default_rng(
            seed_for(seed, "aggregate", spec.name)
        )
        self._start = sim.now
        self._end = sim.now + duration
        self._warmup_until = sim.now + warmup
        self.finished = False

        quantum = handler.predictor.quantum
        grid_max = (
            max(4.0 * spec.qos.deadline, 1.0)
            if response_grid_max is None
            else response_grid_max
        )
        bins = max(1, int(math.ceil(grid_max / quantum)))
        self.stats = AggregateStats(
            quantum=quantum,
            response_hist=np.zeros(bins + 1, dtype=np.int64),
        )

        labels = {"client": handler.name, "population": spec.name}
        metrics = handler.metrics
        self._m_batches = metrics.counter("aggregate_batches", **labels)
        self._m_reads_modeled = metrics.counter("aggregate_reads_modeled", **labels)
        self._m_updates_modeled = metrics.counter(
            "aggregate_updates_modeled", **labels
        )

        sim.schedule(0.0, self._tick)

    # ------------------------------------------------------------------
    # Arrival generation
    # ------------------------------------------------------------------
    def _active_clients(self) -> float:
        """Client-equivalents contributing this batch (bursty: Binomial)."""
        spec = self.spec
        if spec.arrival == "poisson" or spec.duty_cycle >= 1.0:
            return float(spec.clients)
        active = self._rng.binomial(spec.clients, spec.duty_cycle)
        return active / spec.duty_cycle

    def _factor(self) -> float:
        if self.rate_controller is None:
            return 1.0
        return self.rate_controller.factor

    # ------------------------------------------------------------------
    # The batch tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        if now >= self._end - 1e-12:
            self.finished = True
            return
        window = min(self.batch_window, self._end - now)
        factor = self._factor()
        activity = self._active_clients()
        read_rate = activity * self.spec.read_rate * factor
        update_rate = activity * self.spec.update_rate * factor

        k_reads = int(self._rng.poisson(read_rate * window)) if read_rate else 0
        k_updates = int(self._rng.poisson(update_rate * window)) if update_rate else 0

        if k_updates:
            n_probe_u = min(k_updates, self.probe_updates)
            offsets = self._rng.random(n_probe_u) * window
            self.sim.schedule_batch(now + offsets, self._issue_probe_update)
            modeled_u = k_updates - n_probe_u
            self.stats.updates_modeled += modeled_u
            self._m_updates_modeled.inc(modeled_u)

        if k_reads:
            n_probe_r = min(k_reads, self.probe_reads)
            if n_probe_r:
                offsets = self._rng.random(n_probe_r) * window
                include = now >= self._warmup_until
                self.sim.schedule_batch(
                    now + offsets,
                    self._issue_probe_read,
                    args_list=[(include,)] * n_probe_r,
                )
            modeled = k_reads - n_probe_r
            if modeled:
                if now >= self._warmup_until:
                    self._resolve_batch(modeled, update_rate, window)
                else:
                    self.stats.warmup_skipped += modeled

        self.stats.batches += 1
        self._m_batches.inc()
        self.sim.schedule(window, self._tick)

    # ------------------------------------------------------------------
    # Probe subsample: real discrete traffic
    # ------------------------------------------------------------------
    def _issue_probe_read(self, include: bool) -> None:
        spec = self.spec

        def _outcome(outcome: ReadOutcome) -> None:
            if not include:
                return
            stats = self.stats
            stats.probe_reads += 1
            stats.probe_selected += outcome.replicas_selected
            if outcome.timing_failure:
                stats.probe_failures += 1
            if outcome.deferred:
                stats.probe_deferred += 1
            if outcome.response_time is not None:
                stats.probe_response_times.append(outcome.response_time)

        self.handler.invoke("get", (), spec.qos, callback=_outcome)

    def _issue_probe_update(self) -> None:
        self.stats.probe_updates += 1
        self.handler.invoke("increment", ())

    # ------------------------------------------------------------------
    # Analytic resolution of the non-probe arrivals
    # ------------------------------------------------------------------
    def _resolve_batch(self, m: int, update_rate: float, window: float) -> None:
        """Outcomes of ``m`` arrivals, i.i.d. uniform over the next ``window``."""
        qos = self.spec.qos
        handler = self.handler
        predictor = handler.predictor
        now = self.sim.now
        rng = self._rng
        stats = self.stats

        views = handler.candidate_views(qos)
        lazy_interval = handler.repository.lazy_interval(
            predictor.lazy_update_interval
        )
        t_l_now = handler.repository.time_since_lazy_update(now, lazy_interval)
        # Selection sees the same Eq. 4 factor a discrete gateway would
        # compute, except λ_u is the pool's own (true) rate — the
        # broadcast-based estimate only reflects probe updates.
        stale_now = poisson_cdf(
            qos.staleness_threshold, update_rate * t_l_now
        )
        result = handler.strategy.select(views, qos, stale_now)
        selected = result.replicas

        # (immediate pmf, deferred pmf, is secondary) of every selected
        # replica that has history; one without contributes no reply.
        is_primary = {view.name: view.is_primary for view in views}
        replies = []
        for name in selected:
            immediate, deferred = predictor.response_pmfs(name)
            if immediate is not None:
                replies.append((immediate, deferred, not is_primary[name]))

        bins = np.empty(0, dtype=np.int64)
        counts = np.empty(0, dtype=np.int64)
        deferred_count = 0
        if replies:
            # Correlated freshness: one lazy multicast refreshes the whole
            # secondary group, so an arrival is fresh or stale at every
            # selected secondary at once, with Eq. 4 at its own phase of
            # the lazy cycle.  Arrivals are i.i.d. uniform in the window,
            # so the fresh ones number Binomial(m, Eq. 4 averaged over the
            # window's phases) — the law of m per-arrival Bernoullis.
            p_fresh = poisson_cdf_phase_mean(
                qos.staleness_threshold, update_rate, t_l_now, window,
                lazy_interval,
            )
            n_fresh = int(rng.binomial(m, p_fresh))
            # Within a class the arrivals' (first-reply bin, deferred)
            # pairs are i.i.d. from the law, so their counts are one
            # multinomial draw.  A fresh arrival reads every secondary's
            # immediate pmf; a stale one its deferred pmf.
            immediates = [imm for imm, _, _ in replies]
            secondary = [sec for _, _, sec in replies]
            stale_pmfs = [dfr if sec else imm for imm, dfr, sec in replies]
            for size, pmfs, deferred_flags in (
                (n_fresh, immediates, [False] * len(replies)),
                (m - n_fresh, stale_pmfs, secondary),
            ):
                if not size:
                    continue
                offset, win = first_reply_law(pmfs, deferred_flags)
                drawn = rng.multinomial(size, win.ravel() / win.sum()).reshape(
                    win.shape
                )
                deferred_count += int(drawn[1].sum())
                bins = np.concatenate((bins, offset + np.arange(win.shape[1])))
                counts = np.concatenate((counts, drawn.sum(axis=0)))

        values = bins * stats.quantum
        unresolved = 0 if replies else m
        failures = unresolved + int(counts[values > qos.deadline].sum())

        stats.reads_modeled += m
        stats.failures_modeled += failures
        stats.deferred_modeled += deferred_count
        stats.selected_modeled += len(selected) * m
        stats.unresolved += unresolved
        stats.response_sum += float(values @ counts)
        grid = stats.response_hist
        np.add.at(grid, np.minimum(bins, grid.size - 1), counts)

        self._m_reads_modeled.inc(m)
        handler.record_aggregate_batch(
            m, failures, deferred_count, len(selected) * m, values, counts
        )
