"""Pluggable staleness models.

§5.1.3 derives the staleness factor ``P(A_s(t) <= a)`` under Poisson
update arrivals (Equation 4), and notes: "Although we have assumed Poisson
arrivals in our work, it should be possible to evaluate P(N_u(t_l) <= a)
for the case in which the arrival of update requests follows a
distribution that is not Poisson."  This module makes the model a
strategy so that note is realized:

* :class:`PoissonStalenessModel` — Equation 4 verbatim (the default);
* :class:`RateMixtureStalenessModel` — a robust variant for *bursty*
  (over-dispersed) traffic: instead of collapsing the ``<n_u, t_u>``
  window to one average rate, it treats each recorded pair as a rate
  observation and averages the Poisson CDF over them, which keeps the
  factor honest when the arrival rate itself fluctuates.

All models read the same repository state the paper's clients maintain
(the ``<n_u, t_u>`` sliding window and the latest ``<n_L, t_L>``).
"""

from __future__ import annotations

from repro.core.repository import ClientInfoRepository
from repro.stats.poisson import poisson_cdf


class StalenessModel:
    """Strategy interface: estimate ``P(A_s(t) <= a)`` from client state."""

    name = "abstract"

    def staleness_factor(
        self,
        threshold: int,
        repository: ClientInfoRepository,
        now: float,
        lazy_interval: float,
    ) -> float:
        raise NotImplementedError


class PoissonStalenessModel(StalenessModel):
    """Equation 4: ``P(N_u(t_l) <= a)`` with ``N_u ~ Poisson(lambda_u t_l)``."""

    name = "poisson"

    def staleness_factor(
        self,
        threshold: int,
        repository: ClientInfoRepository,
        now: float,
        lazy_interval: float,
    ) -> float:
        rate = repository.update_arrival_rate()
        if rate <= 0.0:
            return 1.0
        t_l = repository.time_since_lazy_update(now, lazy_interval)
        return poisson_cdf(threshold, rate * t_l)


class RateMixtureStalenessModel(StalenessModel):
    """Averages the Poisson CDF over the observed per-interval rates.

    With bursty traffic the single-rate Poisson model is over-confident:
    the mean rate may be low while bursts regularly exceed the staleness
    threshold.  Treating each recorded ``<n_u, t_u>`` pair as its own rate
    observation and averaging ``P(N(t_l) <= a | rate)`` over them captures
    that over-dispersion with the data the client already has.
    """

    name = "rate-mixture"

    def staleness_factor(
        self,
        threshold: int,
        repository: ClientInfoRepository,
        now: float,
        lazy_interval: float,
    ) -> float:
        pairs = repository.update_rate_window.pairs()
        usable = [(n, t) for n, t in pairs if t > 0]
        if not usable:
            return 1.0
        t_l = repository.time_since_lazy_update(now, lazy_interval)
        total = 0.0
        for count, duration in usable:
            rate = count / duration
            total += poisson_cdf(threshold, rate * t_l)
        return total / len(usable)
