"""Unit/behaviour tests for the client-side gateway handler (§5.3, §5.4)."""

import pytest

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import FixedLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant


def make_testbed(service_time=None, **kwargs):
    defaults = dict(
        name="svc",
        num_primaries=2,
        num_secondaries=2,
        lazy_update_interval=1.0,
        read_service_time=service_time or Constant(0.010),
    )
    defaults.update(kwargs)
    return build_testbed(
        ServiceConfig(**defaults), seed=4, latency=FixedLatency(0.001)
    )


QOS = QoSSpec(staleness_threshold=10, deadline=0.5, min_probability=0.5)


# ---------------------------------------------------------------------------
# Request classification (§2)
# ---------------------------------------------------------------------------
def test_undeclared_method_treated_as_update():
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    outcomes = []
    client.invoke("increment", callback=outcomes.append)  # no QoS needed
    testbed.sim.run(until=2.0)
    assert client.updates_issued.value == 1
    assert len(outcomes) == 1


def test_read_requires_qos():
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    with pytest.raises(ValueError):
        client.invoke("get")


def test_default_qos_used_when_not_passed():
    testbed = make_testbed()
    client = testbed.service.create_client(
        "c", read_only_methods={"get"}, default_qos=QOS
    )
    client.invoke("get")
    testbed.sim.run(until=2.0)
    assert client.reads_resolved.value == 1


def test_request_ids_are_numbered_per_fabric():
    """Unique across the clients of one fabric, and from 1 in every
    fabric, so a seeded run issues the same ids in any process."""

    def issue():
        testbed = make_testbed()
        a = testbed.service.create_client("a", read_only_methods={"get"})
        b = testbed.service.create_client("b", read_only_methods={"get"})
        return [a.invoke("increment"), b.invoke("get", qos=QOS), a.invoke("get", qos=QOS)]

    assert issue() == issue() == [1, 2, 3]


# ---------------------------------------------------------------------------
# First-reply delivery
# ---------------------------------------------------------------------------
def test_only_first_reply_delivered():
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    outcomes = []

    def run():
        yield client.call("increment")
        yield Timeout(0.1)
        client.invoke("get", qos=QOS, callback=outcomes.append)
        yield Timeout(2.0)

    Process(testbed.sim, run())
    testbed.sim.run(until=5.0)
    assert len(outcomes) == 1  # several replicas replied; one outcome


def test_late_replies_still_update_monitoring():
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})

    def run():
        yield client.call("increment")
        yield Timeout(0.1)
        yield client.call("get", (), QOS)
        yield Timeout(2.0)

    Process(testbed.sim, run())
    testbed.sim.run(until=5.0)
    # More than one replica's reply reached the repository.
    assert len(client.repository.by_last_reply) >= 2


# ---------------------------------------------------------------------------
# Timing failure detection (§5.4)
# ---------------------------------------------------------------------------
def test_timing_failure_when_deadline_missed():
    testbed = make_testbed(service_time=Constant(0.300))
    client = testbed.service.create_client("c", read_only_methods={"get"})
    tight = QoSSpec(staleness_threshold=10, deadline=0.050, min_probability=0.5)
    outcomes = []
    client.invoke("get", qos=tight, callback=outcomes.append)
    testbed.sim.run(until=5.0)
    assert len(outcomes) == 1
    assert outcomes[0].timing_failure
    assert outcomes[0].response_time > 0.050
    assert client.timing_failures.value == 1


def test_timely_response_not_a_failure():
    testbed = make_testbed(service_time=Constant(0.010))
    client = testbed.service.create_client("c", read_only_methods={"get"})
    outcomes = []
    client.invoke("get", qos=QOS, callback=outcomes.append)
    testbed.sim.run(until=5.0)
    assert not outcomes[0].timing_failure
    assert client.timing_failures.value == 0
    assert client.timely_fraction == 1.0


def test_failure_counted_once_even_with_late_reply():
    testbed = make_testbed(service_time=Constant(0.300))
    client = testbed.service.create_client("c", read_only_methods={"get"})
    tight = QoSSpec(10, 0.050, 0.5)
    client.invoke("get", qos=tight)
    testbed.sim.run(until=5.0)
    assert client.timing_failures.value == 1
    assert client.reads_resolved.value == 1


def test_unanswered_read_garbage_collected_as_failure():
    """Judged a timing failure at ``t0 + d``; resolved, failed, when the
    garbage collector abandons it at ``t0 + gc_timeout``."""
    testbed = make_testbed(gc_timeout=2.0)
    service = testbed.service
    # Crash every replica so no reply can ever arrive.
    for replica in service.all_replicas():
        testbed.network.crash(replica.name)
    client = service.create_client("c", read_only_methods={"get"})
    outcomes = []
    t0 = testbed.sim.now
    client.invoke(
        "get", qos=QOS,
        callback=lambda o: outcomes.append((testbed.sim.now, o)),
    )
    testbed.sim.run(until=t0 + QOS.deadline * 0.99)
    assert client.reads_judged.value == 0
    testbed.sim.run(until=t0 + QOS.deadline)
    assert client.reads_judged.value == client.timing_failures.value == 1
    assert client.reads_resolved.value == 0 and not outcomes
    testbed.sim.run(until=30.0)
    assert len(outcomes) == 1
    resolved_at, outcome = outcomes[0]
    assert resolved_at == pytest.approx(t0 + 2.0)
    assert outcome.timing_failure
    assert outcome.value is None
    assert outcome.response_time is None
    assert client.reads_resolved.value == 1
    assert client.reads_judged.value == client.timing_failures.value == 1


def test_qos_violation_callback_fires():
    testbed = make_testbed(service_time=Constant(0.300))
    violations = []
    client = testbed.service.create_client(
        "c",
        read_only_methods={"get"},
        on_qos_violation=violations.append,
    )
    tight = QoSSpec(10, 0.050, 0.9)

    def run():
        for _ in range(3):
            yield client.call("get", (), tight)
            yield Timeout(0.1)

    Process(testbed.sim, run())
    testbed.sim.run(until=10.0)
    assert violations, "observed timely frequency below P_c must notify"
    assert all(0.0 <= v <= 1.0 for v in violations)


def test_qos_violation_callback_fires_when_the_first_read_misses_its_deadline():
    """The verdict is judged over reads whose deadline has passed, so the
    client hears of a miss at ``t0 + d`` — and only then: the late reply
    that resolves the read at ``t0 + 0.3`` changes no verdict, so it does
    not notify again."""
    testbed = make_testbed(service_time=Constant(0.300))
    heard = []
    client = testbed.service.create_client(
        "c",
        read_only_methods={"get"},
        on_qos_violation=lambda p: heard.append((testbed.sim.now, p)),
    )
    tight = QoSSpec(10, 0.050, 0.9)
    t0 = 1.0
    testbed.sim.schedule_at(t0, client.invoke, "get", (), tight)
    testbed.sim.run(until=3.0)
    assert client.reads_resolved.value == 1
    assert heard == [(pytest.approx(t0 + tight.deadline), 1.0)]


# ---------------------------------------------------------------------------
# Selection bookkeeping
# ---------------------------------------------------------------------------
def test_selected_counts_and_average():
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})

    def run():
        for _ in range(4):
            yield client.call("get", (), QOS)
            yield Timeout(0.1)

    Process(testbed.sim, run())
    testbed.sim.run(until=10.0)
    assert len(client.selected_counts) == 4
    assert client.average_selected() == pytest.approx(
        sum(client.selected_counts) / 4
    )


def test_selection_overhead_recorded_per_read():
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    client.invoke("get", qos=QOS)
    testbed.sim.run(until=2.0)
    overhead = testbed.metrics.histogram(
        "client_selection_overhead_seconds", client="c"
    )
    assert overhead.count == 1
    assert overhead.sum > 0.0


def test_sequencer_added_to_read_targets():
    """The read must reach the sequencer even when not selected (it stamps
    the GSN)."""
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    client.invoke("get", qos=QOS)
    testbed.sim.run(until=2.0)
    assert client.reads_resolved.value == 1  # stamp arrived, read completed


def test_candidates_exclude_sequencer():
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    names = {c.name for c in client.candidate_views(QOS)}
    assert testbed.service.sequencer_name not in names
    assert len(names) == 4  # 2 primaries + 2 secondaries


def test_call_returns_signal(sim):
    testbed = make_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    results = []

    def run():
        outcome = yield client.call("get", (), QOS)
        results.append(outcome)

    Process(testbed.sim, run())
    testbed.sim.run(until=2.0)
    assert len(results) == 1


def test_duplicate_client_name_rejected():
    testbed = make_testbed()
    testbed.service.create_client("c")
    with pytest.raises(ValueError):
        testbed.service.create_client("c")
