"""Binomial proportion confidence intervals, and the paired tests the
campaigns judge their claims with.

§6: "All confidence intervals for the results presented are at a 95 % level,
and have been computed under the assumption that the number of timing
failures follows a binomial distribution."  The experiment harness reports
the same intervals.  We provide both the textbook normal approximation the
paper's citation (Johnson/Kotz/Kemp) describes and the better-behaved
Wilson score interval for small failure counts.

:func:`sign_test` and :func:`holm` are exact and need no scipy: a campaign
claim counts the seeds its treatment won and lost, and a campaign's claims
are one family.
"""

from __future__ import annotations

import math

# Two-sided z quantiles for common confidence levels.
_Z_TABLE = {
    0.80: 1.2815515655446004,
    0.90: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.98: 2.3263478740408408,
    0.99: 2.5758293035489004,
}


def _z_for(level: float) -> float:
    try:
        return _Z_TABLE[round(level, 2)]
    except KeyError:
        raise ValueError(
            f"unsupported confidence level {level!r}; "
            f"supported: {sorted(_Z_TABLE)}"
        ) from None


def binomial_confidence_interval(
    successes: int, trials: int, level: float = 0.95
) -> tuple[float, float]:
    """Normal-approximation (Wald) interval for a binomial proportion.

    Returns ``(low, high)`` clamped to ``[0, 1]``.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials!r}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes!r} outside [0, {trials}]")
    z = _z_for(level)
    p = successes / trials
    half = z * math.sqrt(p * (1.0 - p) / trials)
    return (max(0.0, p - half), min(1.0, p + half))


def wilson_interval(
    successes: int, trials: int, level: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval; preferable when successes is near 0 or n."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials!r}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes!r} outside [0, {trials}]")
    z = _z_for(level)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def intervals_overlap(
    a: tuple[float, float], b: tuple[float, float]
) -> bool:
    """Do two (low, high) intervals share at least one point?"""
    return a[0] <= b[1] and b[0] <= a[1]


def proportions_agree(
    successes_a: int,
    trials_a: int,
    successes_b: int,
    trials_b: int,
    level: float = 0.95,
) -> bool:
    """Two observed proportions agree when their Wilson intervals overlap.

    The acceptance test of the aggregated client tier: a modeled
    probability (timing failure, deferral, a response-CDF point) counts
    as matching the discrete simulator's when the score intervals of the
    two samples intersect.  Zero-trial samples carry no evidence and are
    treated as agreeing.
    """
    if trials_a <= 0 or trials_b <= 0:
        return True
    return intervals_overlap(
        wilson_interval(successes_a, trials_a, level),
        wilson_interval(successes_b, trials_b, level),
    )


def sign_test(wins: int, losses: int) -> float:
    """Exact one-sided sign test: the chance of at least ``wins`` wins in
    ``wins + losses`` fair coin flips (ties are dropped before calling).
    1.0 when nothing differed: no evidence either way."""
    trials = wins + losses
    tail = sum(math.comb(trials, k) for k in range(wins, trials + 1))
    return tail / 2**trials


def holm(pvalues: list[float]) -> list[float]:
    """Holm step-down adjusted p-values, in the input's order: the k-th
    smallest is scaled by ``n - k`` and none falls below its predecessor."""
    order = sorted(range(len(pvalues)), key=pvalues.__getitem__)
    adjusted, running = [0.0] * len(pvalues), 0.0
    for rank, i in enumerate(order):
        running = max(running, min(1.0, (len(pvalues) - rank) * pvalues[i]))
        adjusted[i] = running
    return adjusted
