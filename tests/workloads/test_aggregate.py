"""Tests for the aggregated client tier (:mod:`repro.workloads.aggregate`)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import FixedLatency
from repro.sim.rng import Constant
from repro.workloads.aggregate import (
    AggregatedClientPool,
    AggregateStats,
    PopulationSpec,
)
from repro.workloads.generators import ArrivalRateController


def _testbed(seed=13):
    return build_testbed(
        ServiceConfig(
            name="svc",
            num_primaries=2,
            num_secondaries=2,
            lazy_update_interval=0.5,
            read_service_time=Constant(0.010),
        ),
        seed=seed,
        latency=FixedLatency(0.001),
    )


QOS = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.5)


def _spec(**overrides):
    base = dict(
        name="pop", clients=1000, qos=QOS, read_rate=0.02, update_rate=0.005
    )
    base.update(overrides)
    return PopulationSpec(**base)


def _pool(testbed, spec, **overrides):
    handler = testbed.service.create_client(
        "agg-gw", read_only_methods={"get"}, default_qos=QOS
    )
    kwargs = dict(duration=20.0, batch_window=0.5, seed=1)
    kwargs.update(overrides)
    return AggregatedClientPool(testbed.sim, handler, spec, **kwargs)


# ---------------------------------------------------------------------------
# PopulationSpec validation
# ---------------------------------------------------------------------------
def test_population_spec_rates_scale_with_clients():
    spec = _spec(clients=500, read_rate=0.04, update_rate=0.01)
    assert spec.total_read_rate == pytest.approx(20.0)
    assert spec.total_update_rate == pytest.approx(5.0)


@pytest.mark.parametrize(
    "overrides",
    [
        {"clients": 0},
        {"read_rate": -1.0},
        {"update_rate": -0.1},
        {"read_rate": 0.0, "update_rate": 0.0},
        {"arrival": "fractal"},
        {"duty_cycle": 0.0},
        {"duty_cycle": 1.5},
    ],
)
def test_population_spec_rejects_invalid(overrides):
    with pytest.raises(ValueError):
        _spec(**overrides)


# ---------------------------------------------------------------------------
# Pool construction validation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "overrides",
    [
        {"duration": 0.0},
        {"batch_window": 0.0},
        {"probe_reads": -1},
        {"probe_updates": -1},
        {"warmup": -1.0},
        {"warmup": 20.0},  # warmup must be < duration
        {"response_grid_max": 0.0},  # not "use the default"
        {"response_grid_max": -1.0},
    ],
)
def test_pool_rejects_invalid_parameters(overrides):
    testbed = _testbed()
    with pytest.raises(ValueError):
        _pool(testbed, _spec(), **overrides)


# ---------------------------------------------------------------------------
# End-to-end pool behaviour
# ---------------------------------------------------------------------------
def test_pool_models_most_arrivals_and_probes_a_few():
    testbed = _testbed()
    pool = _pool(testbed, _spec())  # 20 reads/s, 5 updates/s merged
    testbed.sim.run(until=30.0)
    assert pool.finished
    stats = pool.stats
    # ~400 read arrivals over 20 s; probes capped at 1/batch (40 batches).
    assert 300 <= stats.reads <= 520
    assert 0 < stats.probe_reads <= stats.batches
    assert stats.reads_modeled > 5 * stats.probe_reads
    assert stats.batches == 40
    # Updates split the same way.
    assert stats.probe_updates > 0
    assert stats.updates_modeled > 0
    # Modeled outcomes resolved through the §5 pmfs.
    assert int(stats.response_hist.sum()) + stats.unresolved == stats.reads_modeled
    assert stats.avg_replicas_selected >= 1.0
    assert 0.0 <= stats.failure_probability <= 1.0


def test_pool_is_deterministic_for_a_seed():
    def run(seed):
        testbed = _testbed()
        pool = _pool(testbed, _spec(), seed=seed)
        testbed.sim.run(until=30.0)
        stats = pool.stats
        return (
            stats.reads_modeled,
            stats.failures_modeled,
            stats.deferred_modeled,
            stats.response_sum,
            stats.probe_reads,
        )

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_pool_warmup_skips_modeled_arrivals():
    testbed = _testbed()
    pool = _pool(testbed, _spec(), warmup=10.0)
    testbed.sim.run(until=30.0)
    stats = pool.stats
    assert stats.warmup_skipped > 0
    # Roughly half the modeled arrivals fall inside the 10 s warmup.
    assert 0.25 <= stats.warmup_skipped / (
        stats.warmup_skipped + stats.reads_modeled
    ) <= 0.75


def test_pool_rate_controller_scales_arrivals():
    def total_reads(controller):
        testbed = _testbed()
        pool = _pool(testbed, _spec(), rate_controller=controller, seed=3)
        testbed.sim.run(until=30.0)
        return pool.stats.reads

    calm = total_reads(None)
    stormy = total_reads(ArrivalRateController(3.0))
    assert stormy > 2.0 * calm


def test_bursty_pool_preserves_mean_rate():
    testbed = _testbed()
    spec = _spec(arrival="bursty", duty_cycle=0.2)
    pool = _pool(testbed, spec, seed=5)
    testbed.sim.run(until=30.0)
    # Mean preserved: still ~400 read arrivals over 20 s.
    assert 280 <= pool.stats.reads <= 540


def test_pool_without_history_resolves_nothing():
    """Before any reply has been recorded the selected replicas have no
    pmf: every modelled arrival is an unresolved timing failure and the
    response histogram is untouched."""
    testbed = _testbed()
    pool = _pool(testbed, _spec(), probe_reads=0, probe_updates=0, duration=2.0)
    testbed.sim.run(until=5.0)
    stats = pool.stats
    assert stats.reads_modeled > 0
    assert stats.unresolved == stats.failures_modeled == stats.reads_modeled
    assert stats.deferred_modeled == 0
    assert stats.response_sum == 0.0
    assert not stats.response_hist.any()
    hist = pool.handler.metrics.histogram(
        "client_response_time_seconds", client=pool.handler.name
    )
    assert hist.count == 0


def test_a_batch_costs_the_same_whatever_it_stands_for():
    """A billion users resolve a 30 s cell inside tier-1: a batch is one
    Binomial and two multinomial draws over the grid, and nothing is
    allocated per arrival (the per-arrival sampler needed 1.25·10⁷-element
    arrays, 100 MB each, per replica for each of these batches)."""
    testbed = _testbed()
    spec = _spec(clients=10**9, read_rate=0.05, update_rate=1e-9)
    pool = _pool(testbed, spec, duration=30.0, batch_window=0.25, warmup=5.0)
    tracemalloc.start()
    try:
        testbed.sim.run(until=32.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    stats = pool.stats
    assert pool.finished and stats.batches == 120
    # 5·10⁷ reads per second over the 25 s after warm-up.
    assert stats.reads_modeled == pytest.approx(1.25e9, rel=1e-3)
    assert stats.unresolved == 0
    assert int(stats.response_hist.sum()) == stats.reads_modeled
    assert stats.failures_modeled + stats.deferred_modeled < stats.reads_modeled
    assert 0.010 < stats.mean_response_time < QOS.deadline
    hist = pool.handler.metrics.histogram(
        "client_response_time_seconds", client=pool.handler.name
    )
    # Modelled reads plus at most one probe per batch.
    assert 0 <= hist.count - stats.reads_modeled <= stats.batches


def test_modeled_outcomes_follow_the_first_reply_law():
    """Constant 10 ms service and 1 ms links: every reply of a primary
    lands in one bin, so the modelled histogram is that bin alone."""
    testbed = _testbed()
    qos = QoSSpec(staleness_threshold=10**6, deadline=1.0, min_probability=0.5)
    pool = _pool(testbed, _spec(qos=qos, update_rate=0.0), warmup=5.0)
    testbed.sim.run(until=30.0)
    stats = pool.stats
    occupied = np.flatnonzero(stats.response_hist)
    assert stats.reads_modeled > 100 and stats.failures_modeled == 0
    assert occupied.size <= 2 and 0.010 <= occupied[0] * stats.quantum <= 0.020
    assert stats.response_sum == pytest.approx(
        float(stats.response_hist[occupied] @ (occupied * stats.quantum))
    )


def test_pool_feeds_gateway_metrics():
    testbed = _testbed()
    pool = _pool(testbed, _spec())
    testbed.sim.run(until=30.0)
    metrics = pool.handler.metrics
    labels = {"client": pool.handler.name, "population": "pop"}
    assert metrics.counter("aggregate_batches", **labels).value == 40
    assert (
        metrics.counter("aggregate_reads_modeled", **labels).value
        == pool.stats.reads_modeled
    )


# ---------------------------------------------------------------------------
# AggregateStats accounting
# ---------------------------------------------------------------------------
def _stats(quantum=0.01, bins=100):
    return AggregateStats(
        quantum=quantum, response_hist=np.zeros(bins + 1, dtype=np.int64)
    )


def test_stats_empty_is_all_zeros():
    stats = _stats()
    assert stats.reads == 0
    assert stats.failure_probability == 0.0
    assert stats.deferred_fraction == 0.0
    assert stats.avg_replicas_selected == 0.0
    assert stats.mean_response_time == 0.0
    assert np.all(stats.response_cdf([0.1, 1.0]) == 0.0)
    assert np.all(stats.modeled_response_cdf([0.1, 1.0]) == 0.0)


def test_stats_combined_and_modeled_views_differ():
    stats = _stats()
    stats.reads_modeled = 80
    stats.failures_modeled = 8
    stats.deferred_modeled = 4
    stats.probe_reads = 20
    stats.probe_failures = 12
    assert stats.reads == 100
    assert stats.failure_probability == pytest.approx(0.20)
    assert stats.modeled_failure_probability == pytest.approx(0.10)
    assert stats.deferred_fraction == pytest.approx(0.04)
    assert stats.modeled_deferred_fraction == pytest.approx(0.05)


def test_stats_response_cdf_mixes_grid_and_probe_times():
    stats = _stats(quantum=0.01)
    # 6 modeled responses at 20 ms, 4 at 50 ms.
    stats.response_hist[2] = 6
    stats.response_hist[5] = 4
    stats.reads_modeled = 10
    # 2 probe responses straddling the 30 ms evaluation point.
    stats.probe_reads = 2
    stats.probe_response_times = [0.025, 0.060]
    cdf = stats.response_cdf([0.030, 0.100])
    assert cdf[0] == pytest.approx((6 + 1) / 12)
    assert cdf[1] == pytest.approx(1.0)
    modeled = stats.modeled_response_cdf([0.030, 0.100])
    assert modeled[0] == pytest.approx(6 / 10)
    assert modeled[1] == pytest.approx(1.0)


def test_stats_cdf_counts_unresolved_in_denominator():
    stats = _stats(quantum=0.01)
    stats.response_hist[1] = 5
    stats.reads_modeled = 10  # 5 never resolved
    stats.unresolved = 5
    assert stats.modeled_response_cdf([10.0])[0] == pytest.approx(0.5)


def test_stats_overflow_bin_not_counted_as_finite():
    stats = _stats(quantum=0.01, bins=10)
    stats.response_hist[-1] = 3  # overflow slot: beyond-grid responses
    stats.response_hist[2] = 7
    stats.reads_modeled = 10
    # At the far edge of the grid only the 7 on-grid responses count.
    assert stats.modeled_response_cdf([0.09])[0] == pytest.approx(0.7)
