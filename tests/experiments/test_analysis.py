"""Tests for the post-run analysis toolkit."""

import pytest

from repro.core.qos import QoSSpec
from repro.core.requests import ReadOutcome
from repro.core.service import ServiceConfig, build_testbed
from repro.experiments.analysis import (
    client_consistency_report,
    message_profile,
    replica_load_report,
    selection_profile,
)
from repro.net.latency import FixedLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant
from repro.sim.tracing import Trace


@pytest.fixture
def run():
    trace = Trace(enabled=True)
    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=2,
        lazy_update_interval=0.5,
        read_service_time=Constant(0.010),
    )
    testbed = build_testbed(config, seed=41, latency=FixedLatency(0.001),
                            trace=trace)
    client = testbed.service.create_client("c", read_only_methods={"get"})
    qos = QoSSpec(staleness_threshold=5, deadline=0.5, min_probability=0.5)
    outcomes = []

    def workload():
        for _ in range(12):
            yield client.call("increment")
            yield Timeout(0.1)
            outcome = yield client.call("get", (), qos)
            outcomes.append(outcome)
            yield Timeout(0.1)

    Process(testbed.sim, workload())
    testbed.sim.run(until=60.0)
    return testbed, client, outcomes, trace


def test_replica_load_report(run):
    testbed, _, _, _ = run
    report = replica_load_report(testbed.service, elapsed=testbed.sim.now)
    by_name = {r.name: r for r in report.replicas}
    assert by_name["svc-seq"].role == "sequencer"
    assert by_name["svc-seq"].reads_served == 0
    assert by_name["svc-p1"].updates_committed == 12
    assert all(0.0 <= r.utilization <= 1.0 for r in report.replicas)
    # Each read is multicast to its selected set, so replicas together
    # serve at least one request per client read.
    assert report.total_reads() >= 12
    assert report.read_imbalance() >= 1.0
    assert len(report.rows()) == 5


def test_replica_load_report_validation(run):
    testbed, _, _, _ = run
    with pytest.raises(ValueError):
        replica_load_report(testbed.service, elapsed=0.0)


def test_message_profile_counts_protocol_traffic(run):
    _, _, _, trace = run
    profile = message_profile(trace)
    kinds = dict(profile.rows())
    # All the protocol's message types crossed the wire; the group layer
    # adds none of its own: the startup views are installed, not sent.
    assert kinds.get("GroupDataMsg", 0) > 0  # requests/replies/assigns
    assert kinds.get("PerfBroadcast", 0) > 0
    assert set(kinds) == {"GroupDataMsg", "PerfBroadcast"}
    assert profile.total_delivered() > 0


def test_client_consistency_report(run):
    _, _, outcomes, _ = run
    report = client_consistency_report(outcomes, staleness_thresholds=[5])
    assert report.reads == 12
    assert report.response_time_p50_ms > 0
    assert report.response_time_p95_ms >= report.response_time_p50_ms
    assert report.observed_staleness_max >= 0
    assert report.staleness_bound_violations == 0  # bound held everywhere
    assert 0.0 <= report.deferred_fraction <= 1.0


def test_client_consistency_staleness_detection():
    def outcome(gsn, rid):
        return ReadOutcome(
            request_id=rid, value=gsn, response_time=0.01,
            timing_failure=False, replicas_selected=1,
            first_replica="r", deferred=False, gsn=gsn,
        )

    # Versions: 5 then 2 -> the second response is 3 versions stale.
    outcomes = [outcome(5, 1), outcome(2, 2)]
    report = client_consistency_report(outcomes, staleness_thresholds=[1])
    assert report.observed_staleness_max == 3
    assert report.staleness_bound_violations == 1


def test_client_consistency_empty_rejected():
    with pytest.raises(ValueError):
        client_consistency_report([])


def test_selection_profile(run):
    _, client, _, _ = run
    profile = selection_profile(client)
    assert sum(profile.histogram.values()) == 12
    assert profile.mean() == pytest.approx(client.average_selected())
    assert profile.mode() in profile.histogram
    assert profile.rows() == sorted(profile.histogram.items())


def test_selection_profile_empty():
    from repro.experiments.analysis import SelectionProfile

    empty = SelectionProfile({})
    assert empty.mean() == 0.0
    assert empty.mode() == 0
