"""The campaign skeleton's claim verdict (``judge_claims``) on hand-made
suites: seeds paired by mode, ties dropped, the exact sign test, and Holm
over the campaign's claims."""

from dataclasses import dataclass

from repro.experiments.campaign import (
    NO_WORSE,
    Campaign,
    Claim,
    judge_claims,
    suite_violations,
)


@dataclass
class Cell:
    seed: int
    mode: str
    x: float
    violations: tuple = ()


def suite(pairs):
    """``[(treatment x, baseline x), ...]``, one pair per seed."""
    return [
        Cell(seed, mode, x)
        for seed, xs in enumerate(pairs)
        for mode, x in zip(("new", "old"), xs)
    ]


LOWER = Claim("new", "old", "x", better="lower")


def test_ties_count_for_neither_side():
    (v,) = judge_claims([LOWER], suite([(1, 2)] * 5 + [(3, 3)] * 4))
    assert (v.wins, v.losses, v.ties) == (5, 0, 4)
    assert v.p == 1 / 32 and v.passed


def test_a_claim_no_seed_decides_fails():
    """Kills a verdict that reads "never lost" as a win."""
    (v,) = judge_claims([LOWER], suite([(3, 3)] * 20))
    assert (v.wins, v.losses, v.ties) == (0, 0, 20)
    assert v.p == 1.0 and not v.passed


def test_direction_follows_better():
    higher = Claim("new", "old", "x", better="higher")
    lower, high = judge_claims([LOWER, higher], suite([(1, 2)] * 6))
    assert lower.wins == 6 and high.losses == 6
    assert lower.median == -1 == high.median


def test_holm_adjusts_the_claims_together():
    """5 of 5 passes alone (p = 1/32) and fails beside a second such claim
    (Holm p = 1/16): kills a verdict that ignores the family."""
    cells = suite([(1, 2)] * 5)
    (alone,) = judge_claims([LOWER], cells)
    assert alone.passed
    twin = Claim("new", "old", "x", better="lower", kind="wins")
    both = judge_claims([LOWER, twin], cells)
    assert [v.holm_p for v in both] == [1 / 16, 1 / 16]
    assert not any(v.passed for v in both)


def test_no_worse_fails_only_on_a_significant_loss():
    no_worse = Claim("new", "old", "x", better="lower", kind=NO_WORSE)
    (lost,) = judge_claims([no_worse], suite([(2, 1)] * 5))
    assert lost.p == 1 / 32 and not lost.passed
    (mixed,) = judge_claims([no_worse], suite([(2, 1)] * 2 + [(1, 2)]))
    assert mixed.passed
    (tied,) = judge_claims([no_worse], suite([(1, 1)] * 3))
    assert tied.passed


def test_seeds_without_both_modes_are_not_paired():
    cells = suite([(1, 2)] * 3) + [Cell(99, "new", 0.0)]
    (v,) = judge_claims([LOWER], cells)
    assert v.wins + v.losses + v.ties == 3
    (none,) = judge_claims([LOWER], [Cell(0, "new", 1.0)])
    assert none.median is None and not none.passed


def test_a_failed_claim_is_a_suite_violation():
    campaign = Campaign(
        name="toy", doc="", run_cell=None, modes=("new", "old"),
        default=(1, 1.0), quick=(1, 1.0), title="", columns=(),
        cell_fields=(), telemetry_title="", claims=(LOWER,),
    )
    assert suite_violations(campaign, suite([(1, 2)] * 5)) == []
    (line,) = suite_violations(campaign, suite([(2, 1)] * 5))
    assert line.startswith("x: claim 'new beats old on x' fails (0 won, 5 lost")
