"""The exact sign test and Holm's step-down adjustment, on hand-worked
cases (the campaign claims and the equivalence gate both rest on them)."""

import pytest

from repro.stats.confidence import holm, sign_test


def test_sign_test_is_the_upper_binomial_tail_at_one_half():
    """Kills an off-by-one tail (P(X > wins)) and a two-sided p."""
    assert sign_test(8, 0) == 1 / 256
    # C(20,16) + C(20,17) + ... + C(20,20) = 4845 + 1140 + 190 + 20 + 1.
    assert sign_test(16, 4) == pytest.approx(6196 / 2**20)
    assert sign_test(1, 1) == 3 / 4
    assert sign_test(0, 5) == 1.0


def test_sign_test_without_a_difference_is_no_evidence():
    assert sign_test(0, 0) == 1.0


def test_holm_adjusts_step_down_and_keeps_the_order():
    """Kills a Bonferroni (or unadjusted) family-wise step: sorted, the
    p-values are scaled by 4, 3, 2, 1 — 0.04, 0.09, 0.08 -> 0.09 (never
    below its predecessor), 0.5."""
    adjusted = holm([0.01, 0.04, 0.03, 0.5])
    assert adjusted == pytest.approx([0.04, 0.09, 0.09, 0.5])


def test_holm_caps_at_one_and_accepts_an_empty_family():
    assert holm([0.6, 0.7]) == [1.0, 1.0]
    assert holm([]) == []
