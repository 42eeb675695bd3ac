"""Tests for workload generators and the §6 scenario builder."""

from types import SimpleNamespace

import pytest

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.experiments.harness import Figure4Cell
from repro.net.latency import FixedLatency
from repro.sim.kernel import Simulator
from repro.sim.process import Signal
from repro.sim.rng import Constant
from repro.workloads.clients import AlternatingClient, ClientWorkloadConfig
from repro.workloads.generators import OpenLoopUpdater, PeriodicReader
from repro.workloads.scenarios import PaperScenario, build_paper_scenario


def _testbed():
    return build_testbed(
        ServiceConfig(
            name="svc",
            num_primaries=2,
            num_secondaries=2,
            lazy_update_interval=0.5,
            read_service_time=Constant(0.010),
        ),
        seed=8,
        latency=FixedLatency(0.001),
    )


QOS = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.5)


# ---------------------------------------------------------------------------
# AlternatingClient (§6 pattern)
# ---------------------------------------------------------------------------
def test_alternating_pattern_counts():
    testbed = _testbed()
    handler = testbed.service.create_client("c", read_only_methods={"get"})
    workload = AlternatingClient(
        testbed.sim,
        handler,
        ClientWorkloadConfig(total_requests=10, request_delay=0.05, qos=QOS),
    )
    testbed.sim.run(until=60.0)
    assert workload.finished
    assert len(workload.update_outcomes) == 5
    assert len(workload.read_outcomes) == 5


def test_request_delay_is_completion_to_issue():
    """§6: the delay elapses *after completion* of the previous request."""
    testbed = _testbed()
    handler = testbed.service.create_client("c", read_only_methods={"get"})
    delay = 0.5
    workload = AlternatingClient(
        testbed.sim,
        handler,
        ClientWorkloadConfig(total_requests=4, request_delay=delay, qos=QOS),
    )
    testbed.sim.run(until=60.0)
    # 4 requests, each ~12 ms of service+network plus a 0.5 s gap after
    # each: the run must take at least 4 * 0.5 s.
    assert testbed.sim.now >= 4 * delay


def test_metrics_computed_over_reads():
    testbed = _testbed()
    handler = testbed.service.create_client("c", read_only_methods={"get"})
    workload = AlternatingClient(
        testbed.sim,
        handler,
        ClientWorkloadConfig(total_requests=8, request_delay=0.05, qos=QOS),
    )
    testbed.sim.run(until=60.0)
    cell = Figure4Cell.from_reads(workload.read_outcomes, 1.0, 0.5, 0.5)
    assert cell.reads == 4
    assert cell.timing_failure_probability == pytest.approx(
        cell.timing_failures / 4
    )
    assert cell.avg_replicas_selected >= 1.0
    assert cell.mean_response_time > 0.0
    assert 0.0 <= cell.deferred_fraction <= 1.0


def test_warmup_requests_excluded():
    testbed = _testbed()
    handler = testbed.service.create_client("c", read_only_methods={"get"})
    workload = AlternatingClient(
        testbed.sim,
        handler,
        ClientWorkloadConfig(
            total_requests=10, request_delay=0.05, qos=QOS, warmup_requests=4
        ),
    )
    testbed.sim.run(until=60.0)
    assert workload.warmup_skipped == 4
    assert len(workload.read_outcomes) + len(workload.update_outcomes) == 6


def test_empty_metrics_are_zero():
    testbed = _testbed()
    handler = testbed.service.create_client("c", read_only_methods={"get"})
    workload = AlternatingClient(
        testbed.sim, handler, ClientWorkloadConfig(total_requests=0, qos=QOS)
    )
    testbed.sim.run(until=1.0)
    cell = Figure4Cell.from_reads(workload.read_outcomes, 1.0, 0.5, 0.5)
    assert cell.timing_failure_probability == 0.0
    assert cell.avg_replicas_selected == 0.0
    assert cell.mean_response_time == 0.0
    assert (cell.ci_low, cell.ci_high) == (0.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ClientWorkloadConfig(total_requests=-1)
    with pytest.raises(ValueError):
        ClientWorkloadConfig(request_delay=-0.1)
    with pytest.raises(ValueError):
        ClientWorkloadConfig(warmup_requests=-1)


# ---------------------------------------------------------------------------
# Open-loop generators
# ---------------------------------------------------------------------------
def test_open_loop_updater_rate():
    testbed = _testbed()
    handler = testbed.service.create_client("u", read_only_methods={"get"})
    updater = OpenLoopUpdater(
        testbed.sim, handler, testbed.rng, rate=10.0, duration=20.0
    )
    testbed.sim.run(until=30.0)
    # Poisson with rate 10 for 20 s -> ~200 updates (tolerate 4 sigma).
    assert 140 <= updater.issued <= 260
    assert testbed.service.primaries[0].app.value == updater.issued


def test_periodic_updater_exact_count():
    testbed = _testbed()
    handler = testbed.service.create_client("u", read_only_methods={"get"})
    updater = OpenLoopUpdater(
        testbed.sim, handler, testbed.rng, rate=5.0, duration=2.0, poisson=False
    )
    testbed.sim.run(until=10.0)
    assert updater.issued == 10  # gaps of 0.2 s: issues at 0.2 .. 2.0


def test_periodic_reader_collects_outcomes():
    testbed = _testbed()
    handler = testbed.service.create_client("r", read_only_methods={"get"})
    reader = PeriodicReader(
        testbed.sim, handler, QOS, period=0.2, count=5
    )
    testbed.sim.run(until=10.0)
    assert len(reader.outcomes) == 5


def test_generator_validation():
    testbed = _testbed()
    handler = testbed.service.create_client("x", read_only_methods={"get"})
    with pytest.raises(ValueError):
        OpenLoopUpdater(testbed.sim, handler, testbed.rng, rate=0.0, duration=1.0)
    with pytest.raises(ValueError):
        OpenLoopUpdater(testbed.sim, handler, testbed.rng, rate=1.0, duration=0.0)
    with pytest.raises(ValueError):
        PeriodicReader(testbed.sim, handler, QOS, period=0.0, count=1)
    with pytest.raises(ValueError):
        PeriodicReader(testbed.sim, handler, QOS, period=1.0, count=-1)


# ---------------------------------------------------------------------------
# Paper scenario (§6)
# ---------------------------------------------------------------------------
def test_paper_scenario_topology():
    scenario = build_paper_scenario(total_requests=4)
    service = scenario.service
    assert len(service.primaries) == 4
    assert len(service.secondaries) == 6
    assert service.sequencer_name == "svc-seq"
    assert scenario.client1.config.qos.staleness_threshold == 4
    assert scenario.client1.config.qos.min_probability == 0.1
    assert scenario.client2.config.qos.staleness_threshold == 2


def test_paper_scenario_runs_to_completion():
    scenario = build_paper_scenario(total_requests=8, request_delay=0.1)
    scenario.run()
    assert scenario.client1.finished and scenario.client2.finished
    assert len(scenario.client2.read_outcomes) == 4


def test_paper_scenario_seed_reproducibility():
    def failure_counts(seed):
        scenario = build_paper_scenario(
            total_requests=20, request_delay=0.05, seed=seed
        )
        scenario.run()
        cell = Figure4Cell.from_reads(
            scenario.client2.read_outcomes, 0.2, 0.9, 2.0
        )
        return cell.timing_failures, cell.avg_replicas_selected

    assert failure_counts(11) == failure_counts(11)


def _polled_run(scenario):
    """The event-at-a-time loop ``PaperScenario.run`` replaced, as reference."""
    while not (scenario.client1.finished and scenario.client2.finished):
        assert scenario.sim.step()


def test_paper_scenario_run_stops_where_the_polling_loop_did():
    """One ``sim.run`` stopped by the last workload's final event: the same
    events, the same clock, the same outcomes, and no extra event."""
    stopped = build_paper_scenario(total_requests=12, request_delay=0.1, seed=5)
    polled = build_paper_scenario(total_requests=12, request_delay=0.1, seed=5)
    stopped.run()
    _polled_run(polled)
    assert stopped.client1.finished and stopped.client2.finished
    assert stopped.sim.now == polled.sim.now
    assert stopped.sim.events_processed == polled.sim.events_processed
    assert stopped.sim.pending() == polled.sim.pending()
    observed = lambda s: [
        (o.response_time, o.replicas_selected, o.first_replica, o.gsn, o.value)
        for o in s.client2.read_outcomes
    ]
    assert observed(stopped) == observed(polled)
    before = stopped.sim.events_processed
    stopped.run()  # nothing left to wait for: returns without running
    assert stopped.sim.events_processed == before
    assert stopped.client1.on_finished is None


def test_paper_scenario_run_reports_an_exceeded_time_bound():
    scenario = build_paper_scenario(total_requests=8, request_delay=0.1)
    with pytest.raises(RuntimeError, match="time bound"):
        scenario.run(slack=-8 * 5.1 + 0.2)  # bound = 0.2 s of simulated time
    assert not scenario.client2.finished
    assert scenario.client2.on_finished is None


class _NeverAnswers:
    name = "mute"

    def call(self, *args):
        return Signal("never")


def test_paper_scenario_run_reports_going_idle_before_finishing():
    sim = Simulator()
    config = ClientWorkloadConfig(total_requests=2, request_delay=0.1)
    clients = [AlternatingClient(sim, _NeverAnswers(), config) for _ in range(2)]
    scenario = PaperScenario(SimpleNamespace(sim=sim), *clients)
    with pytest.raises(RuntimeError, match="went idle"):
        scenario.run()
