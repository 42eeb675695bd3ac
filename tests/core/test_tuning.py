"""Tests for adaptive lazy-update-interval control."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.core.tuning import (
    AdaptiveLazyController,
    StalenessTarget,
    max_poisson_mean,
)
from repro.net.latency import FixedLatency
from repro.sim.rng import Constant
from repro.stats.poisson import poisson_cdf
from repro.workloads.generators import OpenLoopUpdater


# ---------------------------------------------------------------------------
# max_poisson_mean
# ---------------------------------------------------------------------------
def test_max_mean_satisfies_target():
    for threshold in (0, 1, 2, 5, 10):
        for probability in (0.5, 0.9, 0.99):
            mean = max_poisson_mean(threshold, probability)
            assert poisson_cdf(threshold, mean) >= probability - 1e-6
            # Slightly larger mean violates the target (maximality).
            assert poisson_cdf(threshold, mean * 1.01 + 1e-3) < probability + 1e-9


def test_max_mean_grows_with_threshold():
    means = [max_poisson_mean(a, 0.9) for a in range(6)]
    assert all(b > a for a, b in zip(means, means[1:]))


def test_max_mean_shrinks_with_probability():
    loose = max_poisson_mean(3, 0.5)
    strict = max_poisson_mean(3, 0.99)
    assert strict < loose


def test_max_mean_validation():
    with pytest.raises(ValueError):
        max_poisson_mean(3, 1.0)
    assert max_poisson_mean(-1, 0.9) == 0.0


@given(
    threshold=st.integers(min_value=0, max_value=20),
    probability=st.floats(min_value=0.05, max_value=0.99),
)
@settings(max_examples=60)
def test_max_mean_property(threshold, probability):
    mean = max_poisson_mean(threshold, probability)
    assert mean >= 0.0
    assert poisson_cdf(threshold, mean) >= probability - 1e-5


# ---------------------------------------------------------------------------
# AdaptiveLazyController
# ---------------------------------------------------------------------------
def test_controller_budget_fixed_by_target():
    controller = AdaptiveLazyController(StalenessTarget(2, 0.9))
    assert controller.mean_budget == pytest.approx(max_poisson_mean(2, 0.9))


def test_controller_recommends_budget_over_rate():
    controller = AdaptiveLazyController(
        StalenessTarget(2, 0.9), min_interval=0.01, max_interval=100.0
    )
    controller.observe(updates=20, interval=10.0)  # 2 updates/s
    expected = controller.mean_budget / 2.0
    assert controller.recommended_interval() == pytest.approx(expected)


def test_controller_clamps_to_bounds():
    controller = AdaptiveLazyController(
        StalenessTarget(1, 0.9), min_interval=0.5, max_interval=4.0
    )
    controller.observe(updates=1000, interval=1.0)  # huge rate -> min
    assert controller.recommended_interval() == 0.5
    quiet = AdaptiveLazyController(
        StalenessTarget(1, 0.9), min_interval=0.5, max_interval=4.0
    )
    assert quiet.recommended_interval() == 4.0  # no updates -> max


def test_controller_ewma_tracks_rate_changes():
    controller = AdaptiveLazyController(StalenessTarget(2, 0.9), ewma_alpha=0.5)
    controller.observe(10, 10.0)  # 1/s
    assert controller.estimated_rate == pytest.approx(1.0)
    controller.observe(40, 10.0)  # 4/s burst
    assert 1.0 < controller.estimated_rate < 4.0
    for _ in range(10):
        controller.observe(40, 10.0)
    assert controller.estimated_rate == pytest.approx(4.0, rel=0.05)


def test_controller_validation():
    with pytest.raises(ValueError):
        StalenessTarget(-1, 0.9)
    with pytest.raises(ValueError):
        StalenessTarget(2, 1.0)
    with pytest.raises(ValueError):
        AdaptiveLazyController(StalenessTarget(2, 0.9), min_interval=0.0)
    with pytest.raises(ValueError):
        AdaptiveLazyController(StalenessTarget(2, 0.9), ewma_alpha=0.0)
    controller = AdaptiveLazyController(StalenessTarget(2, 0.9))
    with pytest.raises(ValueError):
        controller.observe(-1, 1.0)
    controller.observe(1, 0.0)  # zero interval ignored, no crash


# ---------------------------------------------------------------------------
# End-to-end: the publisher re-tunes T_L to hold the staleness target
# ---------------------------------------------------------------------------
def _run_adaptive(update_rate, target, duration=120.0):
    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=2,
        lazy_update_interval=2.0,  # starting point; the controller takes over
        adaptive_lazy_target=target,
        read_service_time=Constant(0.010),
    )
    testbed = build_testbed(config, seed=29, latency=FixedLatency(0.001))
    feed = testbed.service.create_client("feed", read_only_methods={"get"})
    OpenLoopUpdater(testbed.sim, feed, testbed.rng, rate=update_rate,
                    duration=duration)
    testbed.sim.run(until=duration)
    return testbed


def test_adaptive_interval_tightens_under_fast_updates():
    target = StalenessTarget(threshold=2, probability=0.9)
    testbed = _run_adaptive(update_rate=5.0, target=target)
    publisher = testbed.service.primaries[0]
    # Budget for (a=2, p=0.9) is ~1.1 expected updates; at 5/s the interval
    # must come down to ~0.22 s, far below the initial 2 s.
    assert publisher.lazy_update_interval < 0.5
    assert publisher.lazy_updates_sent.value > 100  # propagating much more often


def test_adaptive_interval_relaxes_when_quiet():
    target = StalenessTarget(threshold=2, probability=0.9)
    testbed = _run_adaptive(update_rate=0.05, target=target, duration=120.0)
    publisher = testbed.service.primaries[0]
    assert publisher.lazy_update_interval > 2.0  # relaxed beyond the start


def test_adaptive_interval_holds_staleness_target():
    """The point of the controller: just-before-propagation staleness
    stays within the target with roughly the target probability."""
    target = StalenessTarget(threshold=2, probability=0.9)
    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=2,
        lazy_update_interval=2.0,
        adaptive_lazy_target=target,
        read_service_time=Constant(0.010),
    )
    testbed = build_testbed(config, seed=31, latency=FixedLatency(0.001))
    feed = testbed.service.create_client("feed", read_only_methods={"get"})
    OpenLoopUpdater(testbed.sim, feed, testbed.rng, rate=3.0, duration=180.0)

    publisher = testbed.service.primaries[0]
    secondary = testbed.service.secondaries[0]
    hits = []

    def sample():
        if testbed.sim.now > 20.0:  # past the adaptation transient
            staleness = max(0, publisher.my_csn - secondary.my_csn)
            hits.append(staleness <= target.threshold)
        testbed.sim.schedule(0.1, sample)

    testbed.sim.schedule(0.1, sample)
    testbed.sim.run(until=180.0)
    fraction = sum(hits) / len(hits)
    assert fraction >= target.probability - 0.08


def test_clients_follow_announced_interval():
    """With adaptive T_L, staleness broadcasts carry the live interval and
    the client repository uses it for the t_l modulo."""
    target = StalenessTarget(threshold=2, probability=0.9)
    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=2,
        lazy_update_interval=2.0,
        adaptive_lazy_target=target,
        read_service_time=Constant(0.010),
    )
    testbed = build_testbed(config, seed=37, latency=FixedLatency(0.001))
    feed = testbed.service.create_client("feed", read_only_methods={"get"})
    OpenLoopUpdater(testbed.sim, feed, testbed.rng, rate=5.0, duration=120.0)
    observer = testbed.service.create_client("obs", read_only_methods={"get"})
    qos = QoSSpec(100, 2.0, 0.1)
    from repro.sim.process import Process, Timeout

    def reads():
        yield Timeout(40.0)  # let the controller converge first
        for _ in range(30):
            yield observer.call("get", (), qos)
            yield Timeout(0.3)

    Process(testbed.sim, reads())
    testbed.sim.run(until=60.0)  # still inside the update storm
    lazy = observer.repository.latest_lazy
    assert lazy is not None and lazy.interval is not None
    assert lazy.interval < 0.5  # the tightened interval reached clients