"""Probability toolbox used by the middleware's online models.

* :mod:`repro.stats.pmf` — discrete probability mass functions built from
  quantized performance samples, with convolution and CDF evaluation
  (§5.2: the response-time distribution is a discrete convolution of the
  service-time, queuing-delay, gateway-delay, and lazy-wait pmfs).
* :mod:`repro.stats.sliding_window` — bounded most-recent-``l`` sample
  windows (§5.2: "the most recent l measurements ... in separate sliding
  windows").
* :mod:`repro.stats.poisson` — Poisson CDF for the staleness factor (Eq. 4).
* :mod:`repro.stats.confidence` — binomial proportion confidence intervals
  (§6: 95 % intervals assuming binomially distributed timing failures).
* :mod:`repro.stats.summary` — the percentile helper used in reports.
"""

from repro.stats.pmf import DiscretePmf
from repro.stats.sliding_window import SlidingWindow
from repro.stats.poisson import poisson_cdf
from repro.stats.confidence import binomial_confidence_interval, wilson_interval
from repro.stats.summary import percentile

__all__ = [
    "DiscretePmf",
    "SlidingWindow",
    "poisson_cdf",
    "binomial_confidence_interval",
    "wilson_interval",
    "percentile",
]
