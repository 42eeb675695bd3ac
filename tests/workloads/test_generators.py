"""Tests for the open-loop generators in :mod:`repro.workloads.generators`.

Focus: :class:`ArrivalRateController` storm edge cases (nested storms,
end-without-begin) and how :class:`PeriodicReader` / :class:`BurstyUpdater`
gaps respond to rate-factor changes mid-run, plus the
:class:`PoissonReader` discrete reference used by the aggregate-tier
validation.
"""

import pytest

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import FixedLatency
from repro.sim.rng import Constant, RngRegistry
from repro.workloads.generators import (
    ArrivalRateController,
    BurstyUpdater,
    OpenLoopUpdater,
    PeriodicReader,
    PoissonReader,
)


def _testbed():
    return build_testbed(
        ServiceConfig(
            name="svc",
            num_primaries=2,
            num_secondaries=2,
            lazy_update_interval=0.5,
            read_service_time=Constant(0.010),
        ),
        seed=11,
        latency=FixedLatency(0.001),
    )


QOS = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.5)


# ---------------------------------------------------------------------------
# ArrivalRateController storm edge cases
# ---------------------------------------------------------------------------
def test_controller_defaults_to_unity_and_rejects_bad_factors():
    controller = ArrivalRateController()
    assert controller.factor == 1.0
    assert not controller.storming
    with pytest.raises(ValueError):
        ArrivalRateController(0.0)
    with pytest.raises(ValueError):
        ArrivalRateController(-2.0)
    with pytest.raises(ValueError):
        controller.begin_storm(0.0)
    with pytest.raises(ValueError):
        controller.begin_storm(-1.0)
    # The rejected begin_storm changed nothing.
    assert controller.factor == 1.0
    assert controller.storms_started == 0


def test_nested_storms_overwrite_factor_and_count_each_begin():
    """A second begin_storm before end_storm replaces the factor (storms
    do not stack multiplicatively) and still counts as a started storm."""
    controller = ArrivalRateController()
    controller.begin_storm(3.0)
    assert controller.factor == 3.0
    assert controller.storming
    controller.begin_storm(5.0)
    assert controller.factor == 5.0  # replaced, not 15.0
    assert controller.storms_started == 2
    # One end_storm fully unwinds the nesting — storms are not a stack.
    controller.end_storm()
    assert controller.factor == 1.0
    assert not controller.storming


def test_end_storm_without_begin_is_harmless():
    controller = ArrivalRateController(2.5)
    controller.end_storm()  # never began a storm; resets to the neutral 1.0
    assert controller.factor == 1.0
    assert controller.storms_started == 0
    controller.end_storm()  # idempotent
    assert controller.factor == 1.0


# ---------------------------------------------------------------------------
# PeriodicReader gap behaviour under factor changes
# ---------------------------------------------------------------------------
def test_periodic_reader_gap_tracks_controller_factor():
    testbed = _testbed()
    handler = testbed.service.create_client("c", read_only_methods={"get"})
    controller = ArrivalRateController()
    reader = PeriodicReader(
        testbed.sim, handler, QOS, period=0.1,
        duration=10.0, rate_controller=controller,
    )
    assert reader._gap() == pytest.approx(0.1)
    controller.begin_storm(4.0)
    assert reader._gap() == pytest.approx(0.025)  # storm: 4x faster
    controller.end_storm()
    assert reader._gap() == pytest.approx(0.1)


def test_periodic_reader_issues_more_during_storm():
    """Raising the factor mid-run takes effect on the next gap: the
    duration-mode reader issues ~factor times as many reads per second."""
    testbed = _testbed()
    handler = testbed.service.create_client("c", read_only_methods={"get"})
    controller = ArrivalRateController()
    reader = PeriodicReader(
        testbed.sim, handler, QOS, period=0.1,
        duration=20.0, rate_controller=controller,
    )
    testbed.sim.schedule(10.0, lambda: controller.begin_storm(3.0))
    testbed.sim.run(until=30.0)
    # ~100 reads in the first 10 s, ~300 in the stormy second 10 s.
    assert 350 <= reader.issued <= 450


def test_periodic_reader_without_controller_uses_fixed_period():
    testbed = _testbed()
    handler = testbed.service.create_client("c", read_only_methods={"get"})
    reader = PeriodicReader(testbed.sim, handler, QOS, period=0.5, count=6)
    testbed.sim.run(until=30.0)
    assert reader.issued == 6
    assert len(reader.outcomes) == 6


# ---------------------------------------------------------------------------
# BurstyUpdater gap behaviour
# ---------------------------------------------------------------------------
def test_bursty_updater_mean_rate_is_duty_cycle_weighted():
    testbed = _testbed()
    handler = testbed.service.create_client("u", read_only_methods={"get"})
    updater = BurstyUpdater(
        testbed.sim, handler, RngRegistry(3),
        burst_rate=20.0, burst_length=1.0, idle_length=3.0, duration=40.0,
    )
    testbed.sim.run(until=60.0)
    # ~5/s over 40 s = ~200 issued; allow generous Poisson slack.
    assert 140 <= updater.issued <= 260


def test_bursty_updater_zero_idle_degenerates_to_poisson():
    testbed = _testbed()
    handler = testbed.service.create_client("u", read_only_methods={"get"})
    updater = BurstyUpdater(
        testbed.sim, handler, RngRegistry(4),
        burst_rate=10.0, burst_length=0.5, idle_length=0.0, duration=20.0,
    )
    testbed.sim.run(until=40.0)
    assert 140 <= updater.issued <= 260


def test_bursty_updater_rejects_invalid_shapes():
    testbed = _testbed()
    handler = testbed.service.create_client("u", read_only_methods={"get"})
    rng = RngRegistry(5)
    with pytest.raises(ValueError):
        BurstyUpdater(testbed.sim, handler, rng, 0.0, 1.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        BurstyUpdater(testbed.sim, handler, rng, 10.0, 0.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        BurstyUpdater(testbed.sim, handler, rng, 10.0, 1.0, -0.5, 10.0)
    with pytest.raises(ValueError):
        BurstyUpdater(testbed.sim, handler, rng, 10.0, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# OpenLoopUpdater under a controller (the storm consumer the chaos engine
# actually drives)
# ---------------------------------------------------------------------------
def test_open_loop_updater_rate_tracks_controller():
    testbed = _testbed()
    handler = testbed.service.create_client("u", read_only_methods={"get"})
    controller = ArrivalRateController()
    updater = OpenLoopUpdater(
        testbed.sim, handler, RngRegistry(6), rate=10.0, duration=20.0,
        rate_controller=controller,
    )
    assert updater._effective_rate() == pytest.approx(10.0)
    controller.begin_storm(2.0)
    assert updater._effective_rate() == pytest.approx(20.0)
    controller.end_storm()
    assert updater._effective_rate() == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# PoissonReader — the aggregate tier's discrete reference
# ---------------------------------------------------------------------------
def test_poisson_reader_issues_at_rate_and_records_issue_times():
    testbed = _testbed()
    handler = testbed.service.create_client("c", read_only_methods={"get"})
    reader = PoissonReader(
        testbed.sim, handler, RngRegistry(7), QOS, rate=20.0, duration=30.0,
    )
    testbed.sim.run(until=60.0)
    # ~600 expected; wide Poisson tolerance.
    assert 480 <= reader.issued <= 720
    assert len(reader.records) == reader.issued
    issue_times = [issued_at for issued_at, _ in reader.records]
    assert all(0.0 <= t <= 30.0 for t in issue_times)
    # Every outcome actually resolved.
    assert all(outcome.response_time is not None for _, outcome in reader.records)


def test_poisson_reader_respects_rate_controller():
    testbed = _testbed()
    handler = testbed.service.create_client("c", read_only_methods={"get"})
    controller = ArrivalRateController(3.0)
    reader = PoissonReader(
        testbed.sim, handler, RngRegistry(8), QOS, rate=10.0, duration=20.0,
        rate_controller=controller,
    )
    testbed.sim.run(until=40.0)
    # Effective 30/s over 20 s = ~600.
    assert 480 <= reader.issued <= 720


def test_poisson_reader_rejects_invalid_parameters():
    testbed = _testbed()
    handler = testbed.service.create_client("c", read_only_methods={"get"})
    rng = RngRegistry(9)
    with pytest.raises(ValueError):
        PoissonReader(testbed.sim, handler, rng, QOS, rate=0.0, duration=10.0)
    with pytest.raises(ValueError):
        PoissonReader(testbed.sim, handler, rng, QOS, rate=5.0, duration=0.0)
