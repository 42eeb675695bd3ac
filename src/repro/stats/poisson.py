"""Poisson distribution helpers.

Equation 4 of the paper models the number of update requests received by
the primary group since the last lazy update as Poisson with rate
``lambda_u``:

    P(A_s(t) <= a) = P(N_u(t_l) <= a) = sum_{n=0}^{a} (lam*t_l)^n e^{-lam*t_l} / n!

``poisson_cdf`` computes the sum with an incremental term recurrence so it
stays numerically stable for the small thresholds the QoS model uses.

A request that arrives at a uniformly random instant of a window sees the
*average* of Eq. 4 over the lazy-cycle phases the window covers.
``poisson_cdf_integral`` is the closed form of ``∫ P(N_u(s) <= a) ds`` and
``poisson_cdf_phase_mean`` the average over a window that may wrap at
``T_L``; the fluid client tier draws a whole batch's fresh count from it.
"""

from __future__ import annotations

import math


def poisson_cdf(a: int, mean: float) -> float:
    """P(N <= a) for N ~ Poisson(mean); Equation 4 with mean = lambda_u * t_l."""
    if mean < 0:
        raise ValueError(f"negative mean {mean!r}")
    if a < 0:
        return 0.0
    if mean == 0:
        return 1.0
    # Recurrence: term_{n} = term_{n-1} * mean / n, term_0 = e^{-mean}.
    term = math.exp(-mean)
    total = term
    for n in range(1, a + 1):
        term *= mean / n
        total += term
    return min(1.0, total)


def poisson_cdf_integral(a: int, rate: float, t: float) -> float:
    """``H(t) = ∫₀ᵗ P(N(rate·s) <= a) ds`` for N(x) ~ Poisson(x), in closed form.

    Term by term ``∫₀ᵗ e^{-λs} (λs)^k / k! ds = P(N(λt) > k) / λ``, hence
    ``H(t) = Σ_{k<=a} P(N(λt) > k) / λ``; ``H(t) = t`` at rate 0.
    """
    if rate < 0:
        raise ValueError(f"negative rate {rate!r}")
    if t < 0:
        raise ValueError(f"negative duration {t!r}")
    if a < 0:
        return 0.0
    mean = rate * t
    if mean == 0:
        return t
    term = math.exp(-mean)
    if mean < 1.0:
        # Σ_{k<=a} P(N > k) = Σ_{n>=1} min(n, a+1) P(N = n), summed as a
        # tail: (a+1) - Σ cdf would cancel to rounding noise over a tiny
        # rate, where H(t) is just below t.
        total = 0.0
        n = 0
        while True:
            n += 1
            term *= mean / n
            step = min(n, a + 1) * term
            total += step
            if step <= total * 1e-17:
                return total / rate
    cdf = term
    excess = 1.0 - cdf
    for k in range(1, a + 1):
        term *= mean / k
        cdf += term
        excess += 1.0 - cdf
    return max(0.0, excess) / rate


def poisson_cdf_phase_mean(
    a: int, rate: float, start: float, width: float, period: float
) -> float:
    """Mean of ``P(N(rate·(s mod period)) <= a)`` over ``s`` in
    ``[start, start + width)``: Eq. 4 averaged over the phases of a window
    that wraps at ``period`` (the lazy-update interval) any number of times.
    """
    if width <= 0 or period <= 0:
        raise ValueError(f"window {width!r} / period {period!r} must be positive")
    if start < 0:
        raise ValueError(f"negative window start {start!r}")
    full_cycle = poisson_cdf_integral(a, rate, period)

    def upto(s: float) -> float:
        cycles, phase = divmod(s, period)
        return cycles * full_cycle + poisson_cdf_integral(a, rate, phase)

    return min(1.0, max(0.0, (upto(start + width) - upto(start)) / width))
