"""Unit tests for the φ-accrual failure detector (repro.core.detector)."""

import pytest

from repro.core.detector import (
    PHI_CAP,
    PHI_SUSPECT,
    DetectorConfig,
    PhiAccrualDetector,
)


CFG = DetectorConfig(window_size=8, min_samples=4, probe_interval=0.5)


def feed(det, peer, start, count, dt):
    """Regular arrivals every ``dt`` starting at ``start``; returns the
    time of the last arrival."""
    t = start
    for _ in range(count):
        det.record(peer, t)
        t += dt
    return t - dt


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"window_size": 1},
        {"phi_suspect": 0.0},
        {"phi_hedge": -1.0},
        {"phi_suspect": 2.0, "phi_hedge": 3.0},
        {"min_samples": 1},
        {"min_std": 0.0},
        {"probe_interval": 0.0},
        {"min_eject_keep": 0},
        {"watchdog_multiplier": 0.0},
        {"quarantine_base": -0.1},
        {"quarantine_memory": 0.0},
    ],
)
def test_config_rejects_invalid(kwargs):
    # A knob that is a module constant rather than a field is refused as an
    # unknown keyword, so a caller passing it fails instead of being ignored.
    with pytest.raises((TypeError, ValueError)):
        DetectorConfig(**kwargs)


# ---------------------------------------------------------------------------
# φ computation
# ---------------------------------------------------------------------------
def test_unknown_peer_has_zero_phi():
    det = PhiAccrualDetector(CFG)
    assert det.phi("ghost", 1.0) == 0.0


def test_cold_peer_is_never_suspected():
    det = PhiAccrualDetector(CFG)
    # min_samples=4 intervals require 5 arrivals; feed only 3.
    feed(det, "p", 0.0, 3, 0.1)
    assert det.phi("p", 50.0) == 0.0
    assert det.suspicion_check("p", 50.0) == 0.0
    assert not det.is_suspected("p")


def test_phi_grows_with_elapsed_gap():
    det = PhiAccrualDetector(CFG)
    last = feed(det, "p", 0.0, 8, 0.1)
    small = det.phi("p", last + 0.1)
    medium = det.phi("p", last + 0.2)
    large = det.phi("p", last + 1.0)
    assert small < medium < large
    assert large == PHI_CAP  # a 10-sigma gap underflows the tail


def test_phi_is_low_at_the_mean_interval():
    det = PhiAccrualDetector(CFG)
    last = feed(det, "p", 0.0, 8, 0.1)
    # At exactly the mean inter-arrival, P(later) = 0.5, so φ ≈ 0.3.
    assert det.phi("p", last + 0.1) == pytest.approx(0.301, abs=0.01)


def test_same_instant_duplicate_arrivals_are_ignored():
    det = PhiAccrualDetector(CFG)
    feed(det, "p", 0.0, 6, 0.1)
    before = det.phi("p", 0.6)
    det.record("p", 0.5)  # duplicate of the last arrival
    assert det.phi("p", 0.6) == before


# ---------------------------------------------------------------------------
# Suspicion latch and clear
# ---------------------------------------------------------------------------
def test_suspicion_latches_and_clears_on_arrival():
    det = PhiAccrualDetector(CFG)
    last = feed(det, "p", 0.0, 8, 0.1)
    value = det.suspicion_check("p", last + 2.0)
    assert value >= PHI_SUSPECT
    assert det.is_suspected("p")
    assert det.suspected() == ["p"]
    # The latch holds even if queried again.
    det.suspicion_check("p", last + 2.1)
    assert det.is_suspected("p")
    # One arrival clears it.
    det.record("p", last + 3.0)
    assert not det.is_suspected("p")
    assert det.suspected() == []


def test_transitions_record_suspect_and_clear_edges():
    det = PhiAccrualDetector(CFG)
    last = feed(det, "p", 0.0, 8, 0.1)
    det.suspicion_check("p", last + 2.0)
    det.record("p", last + 3.0)
    kinds = [(t.peer, t.suspected) for t in det.transitions]
    assert kinds == [("p", True), ("p", False)]
    assert det.transitions[0].phi >= PHI_SUSPECT
    assert det.transitions[0].time == pytest.approx(last + 2.0)
    assert det.transitions[1].time == pytest.approx(last + 3.0)


# ---------------------------------------------------------------------------
# Flap-damping quarantine
# ---------------------------------------------------------------------------
def episode(det, peer, last, gap=2.0):
    """One suspect -> clear flap episode.

    Latches at a ``gap``-second silence, clears with one arrival, then
    feeds a fresh rhythm so the clearing outlier rotates out of the window
    (maxlen 8) and the next episode latches on the same gap.  Returns
    ``(clear_time, last_arrival_time)``.
    """
    suspect_t = last + gap
    assert det.suspicion_check(peer, suspect_t) >= PHI_SUSPECT
    clear_t = suspect_t + 0.5
    det.record(peer, clear_t)
    return clear_t, feed(det, peer, clear_t + 0.1, 8, 0.1)


def test_first_suspicion_clears_without_quarantine():
    det = PhiAccrualDetector(CFG)
    last = feed(det, "p", 0.0, 8, 0.1)
    clear_t, _ = episode(det, "p", last)
    assert not det.is_suspected("p", clear_t + 0.01)


def test_repeat_suspicion_quarantines_with_backoff():
    det = PhiAccrualDetector(CFG)
    last = feed(det, "p", 0.0, 8, 0.1)
    _, last = episode(det, "p", last)  # first episode: no quarantine
    # Second episode within QUARANTINE_MEMORY: base hold (0.2 s).
    clear_t, last = episode(det, "p", last)
    assert det.is_suspected("p", clear_t + 0.1)
    assert not det.is_suspected("p", clear_t + 0.3)
    # Third episode: hold doubles (0.4 s).
    clear_t, last = episode(det, "p", last)
    assert det.is_suspected("p", clear_t + 0.3)
    assert not det.is_suspected("p", clear_t + 0.5)


def test_quarantine_hold_is_capped():
    det = PhiAccrualDetector(CFG)
    last = feed(det, "p", 0.0, 8, 0.1)
    clear_t = 0.0
    # Six suspect/clear episodes, short enough to fit QUARANTINE_MEMORY.
    for _ in range(6):
        clear_t, last = episode(det, "p", last, gap=0.5)
    # Hold would be 0.2 * 2^4 = 3.2 s without the 3 s cap.
    assert det.is_suspected("p", clear_t + 2.9)
    assert not det.is_suspected("p", clear_t + 3.1)


def test_is_suspected_without_now_ignores_quarantine():
    det = PhiAccrualDetector(CFG)
    last = feed(det, "p", 0.0, 8, 0.1)
    _, last = episode(det, "p", last)
    clear_t, _ = episode(det, "p", last)
    # Quarantined (repeat suspicion) but not latched:
    assert det.is_suspected("p", clear_t + 0.1)
    assert not det.is_suspected("p")


def test_under_suspicion_merges_latched_and_quarantined():
    det = PhiAccrualDetector(CFG)
    last_a = feed(det, "a", 0.0, 8, 0.1)
    last_b = feed(det, "b", 0.0, 8, 0.1)
    # "a": two episodes -> quarantined after the second clear.
    _, last_a = episode(det, "a", last_a)
    clear_a, _ = episode(det, "a", last_a)
    # "b": latched right now.
    det.suspicion_check("b", clear_a)
    assert det.under_suspicion(clear_a + 0.1) == {"a", "b"}
    assert det.under_suspicion(clear_a + 1.0) == {"b"}


# ---------------------------------------------------------------------------
# Probing
# ---------------------------------------------------------------------------
def test_should_probe_only_when_suspected():
    det = PhiAccrualDetector(CFG)
    feed(det, "p", 0.0, 8, 0.1)
    assert not det.should_probe("p", 10.0)


def test_should_probe_is_rate_limited():
    det = PhiAccrualDetector(CFG)
    last = feed(det, "p", 0.0, 8, 0.1)
    det.suspicion_check("p", last + 2.0)
    # The latch itself counts as the first probe slot.
    assert not det.should_probe("p", last + 2.1)
    assert det.should_probe("p", last + 2.0 + CFG.probe_interval)
    assert not det.should_probe("p", last + 2.1 + CFG.probe_interval)


# ---------------------------------------------------------------------------
# forget
# ---------------------------------------------------------------------------
def test_forget_drops_all_state():
    det = PhiAccrualDetector(CFG)
    last = feed(det, "p", 0.0, 8, 0.1)
    _, last = episode(det, "p", last)
    clear_t, _ = episode(det, "p", last)
    assert det.is_suspected("p", clear_t + 0.1)  # quarantined
    det.forget("p")
    assert det.phi("p", clear_t + 10.0) == 0.0
    assert not det.is_suspected("p", clear_t + 0.1)
    assert det.under_suspicion(clear_t + 0.1) == set()


# ---------------------------------------------------------------------------
# Adaptive timeout
# ---------------------------------------------------------------------------
def test_adaptive_timeout_falls_back_when_cold():
    det = PhiAccrualDetector(CFG)
    feed(det, "p", 0.0, 3, 0.1)
    assert det.adaptive_timeout("p", 0.7) == 0.7


def test_adaptive_timeout_tracks_the_history():
    det = PhiAccrualDetector(CFG)
    feed(det, "p", 0.0, 9, 0.1)
    # mean=0.1, σ floored at 0.1×mean=0.01, k=6 -> 0.16.
    assert det.adaptive_timeout("p", 0.1) == pytest.approx(0.16)


def test_adaptive_timeout_is_clamped():
    det = PhiAccrualDetector(CFG)
    feed(det, "p", 0.0, 9, 0.1)
    assert det.adaptive_timeout("p", 10.0) == pytest.approx(5.0)  # floor /2
    assert det.adaptive_timeout("p", 0.001) == pytest.approx(0.01)  # 10x cap


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------
def test_stats_shape():
    from repro.obs.metrics import MetricsRegistry

    det = PhiAccrualDetector(CFG, owner="client-1", metrics=MetricsRegistry())
    last = feed(det, "p", 0.0, 8, 0.1)
    det.suspicion_check("p", last + 2.0)
    stats = det.stats()
    assert stats["peers"] == 1
    assert stats["suspected"] == ["p"]
    assert stats["suspects_total"] == 1
    assert stats["clears_total"] == 0
    assert stats["transitions"] == 1
