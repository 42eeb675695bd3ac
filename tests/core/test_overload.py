"""Overload protection (DESIGN.md §11): bounded queues, deadline-aware
shedding, pressure detection, the degradation ladder — and the default-off
guarantee that a service built without an OverloadConfig behaves
bit-identically to one whose protection never fires.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overload import (
    CRITICAL,
    ELEVATED,
    HIGH,
    NOMINAL,
    SHED_LEVEL,
    DegradationPolicy,
    OverloadConfig,
    PressureMonitor,
)
from repro.core.qos import QoSSpec
from repro.core.selection import SelectionResult, SelectionStrategy
from repro.core.service import ServiceConfig, build_testbed
from repro.groups.membership import MembershipConfig
from repro.net.latency import FixedLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant
from repro.sim.tracing import Trace
from repro.workloads.generators import PeriodicReader

QOS = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.5)


def make_testbed(
    overload=None,
    num_primaries=2,
    num_secondaries=2,
    lui=0.4,
    seed=21,
    **config_kwargs,
):
    config = ServiceConfig(
        name="svc",
        num_primaries=num_primaries,
        num_secondaries=num_secondaries,
        lazy_update_interval=lui,
        read_service_time=Constant(0.010),
        membership=MembershipConfig(heartbeat_interval=0.1, suspect_timeout=0.35),
        gc_timeout=3.0,
        overload=overload,
        **config_kwargs,
    )
    return build_testbed(
        config,
        seed=seed,
        latency=FixedLatency(0.001),
        trace=Trace(enabled=True),
    )


def warm_up(testbed, client, reads=10, until=2.0):
    def run():
        yield client.call("increment")
        for _ in range(reads):
            yield client.call("get", (), QOS)
            yield Timeout(0.1)

    Process(testbed.sim, run())
    testbed.sim.run(until=until)


class SecondariesOnly(SelectionStrategy):
    def select(self, candidates, qos, stale_factor):
        names = tuple(c.name for c in candidates if not c.is_primary)
        return SelectionResult(names, 1.0, True)


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"queue_capacity": 0},
        {"defer_capacity": 0},
        {"min_retry_after": -0.1},
        {"pressure_alpha": 0.0},
        {"pressure_alpha": 1.5},
        {"hysteresis": 0.0},
        {"depth_thresholds": (4.0, 2.0, 16.0)},
        {"wait_ratio_thresholds": (1.0, 2.0)},
        {"wait_ratio_thresholds": (0.0, 1.0, 2.0)},
    ],
)
def test_overload_config_rejects_bad_values(kwargs):
    # A knob that is a module constant rather than a field is refused as an
    # unknown keyword, so a caller passing it fails instead of being ignored.
    with pytest.raises((TypeError, ValueError)):
        OverloadConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"staleness_widen": -1},
        {"probability_relief": 1.5},
        {"max_level": 0},
        {"shed_level": 0},
        {"shed_level": 5},
        {"prefer_secondaries_level": 0},
        {"step_cooldown": -0.1},
        {"recovery_window": 0.0},
    ],
)
def test_degradation_config_rejects_bad_values(kwargs):
    # The ladder's one setting is DegradationPolicy's step_cooldown; the
    # rest of its shape is module constants, refused as unknown keywords.
    with pytest.raises((TypeError, ValueError)):
        DegradationPolicy(**kwargs)


# ---------------------------------------------------------------------------
# PressureMonitor
# ---------------------------------------------------------------------------
def test_pressure_rises_immediately_on_heavy_samples():
    monitor = PressureMonitor()
    assert monitor.observe(queue_depth=20, tq=0.2, ts=0.01) == CRITICAL
    # First sample seeds the EWMAs outright — no slow ramp from zero.
    assert monitor.depth_ewma == 20.0


def test_pressure_descends_only_with_hysteresis():
    monitor = PressureMonitor()
    monitor.observe(queue_depth=9, tq=0.0, ts=0.01)  # seeds the EWMA at 9
    assert monitor.level == ELEVATED + 1  # depth 9 >= both 4 and 8
    # Smoothed depth 7.2 (then 5.76), below the held band's 8, is NOT
    # enough to step down...
    for depth_ewma in (7.2, 5.76):
        monitor.observe(queue_depth=0, tq=0.0, ts=0.01)
        assert monitor.depth_ewma == pytest.approx(depth_ewma)
        assert monitor.level == HIGH
    # ...but 4.608, clearing HYSTERESIS * thresholds[1] = 0.7 * 8, is.
    monitor.observe(queue_depth=0, tq=0.0, ts=0.01)
    assert monitor.depth_ewma == pytest.approx(4.608)
    assert monitor.level == ELEVATED


def test_pressure_needs_both_signals_quiet_to_descend():
    monitor = PressureMonitor()
    monitor.observe(queue_depth=9, tq=0.05, ts=0.01)  # ratio 5 -> CRITICAL
    assert monitor.level == CRITICAL
    # Depth quiet, ratio still hot: hold the level.
    for _ in range(10):
        monitor.observe(queue_depth=0, tq=0.05, ts=0.01)
    assert monitor.depth_ewma < 1.0
    assert monitor.level == CRITICAL
    # Both quiet: step down one level at a time.
    while monitor.level == CRITICAL:
        monitor.observe(queue_depth=0, tq=0.0, ts=0.01)
    assert monitor.level == HIGH


def test_expected_wait_tracks_service_time():
    monitor = PressureMonitor()
    monitor.observe(queue_depth=1, tq=0.0, ts=0.02)
    assert monitor.expected_wait(5) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# DegradationPolicy
# ---------------------------------------------------------------------------
def test_ladder_steps_down_on_overload_with_cooldown():
    policy = DegradationPolicy(step_cooldown=1.0)
    assert policy.note_overload(0.0) is not None
    assert policy.level == 1
    # Within the cooldown: evidence noted, no further step.
    assert policy.note_overload(0.5) is None
    assert policy.level == 1
    assert policy.note_overload(1.5) is not None
    assert policy.level == 2


def test_ladder_recovers_one_level_per_quiet_window():
    policy = DegradationPolicy(step_cooldown=0.0)  # RECOVERY_WINDOW is 1 s
    policy.note_overload(0.0)
    policy.note_overload(0.1)
    assert policy.level == 2
    assert policy.note_ok(0.5) is None  # window not yet elapsed
    step = policy.note_ok(1.2)
    assert step is not None and not step.down
    assert policy.level == 1
    # The up-step itself restarts the window.
    assert policy.note_ok(1.3) is None
    assert policy.note_ok(2.3) is not None
    assert policy.level == NOMINAL
    assert policy.note_ok(5.0) is None  # already nominal


def test_admit_relaxes_qos_per_level():
    policy = DegradationPolicy()  # STALENESS_WIDEN 5, PROBABILITY_RELIEF 0.1
    assert policy.admit(QOS) is QOS  # nominal: untouched
    policy.note_overload(0.0)
    policy.note_overload(1.0)
    relaxed = policy.admit(QOS)
    assert relaxed.staleness_threshold == QOS.staleness_threshold + 10
    assert relaxed.min_probability == pytest.approx(0.3)
    assert relaxed.deadline == QOS.deadline


def test_shed_level_sheds_only_low_priority():
    policy = DegradationPolicy(step_cooldown=0.0)
    for t in range(3):
        policy.note_overload(float(t))
    assert policy.level == SHED_LEVEL
    vip = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.99)
    assert policy.admit(vip, priority="platinum") is not None
    assert policy.admit(QOS, priority="bronze") is None
    assert policy.admit(QOS) is None  # inferred from P_c <= bronze floor
    assert sum(step.down for step in policy.steps) == 3


def test_prefer_secondaries_at_configured_level():
    policy = DegradationPolicy(step_cooldown=0.0)
    assert not policy.prefer_secondaries
    policy.note_overload(0.0)
    assert not policy.prefer_secondaries
    policy.note_overload(1.0)
    assert policy.prefer_secondaries


def test_a_ladder_keeps_the_books_of_one_client():
    """The client a policy is built into records its steps; a second
    client cannot take the same policy over."""
    service = make_testbed().service
    policy = DegradationPolicy(step_cooldown=0.0)
    client = service.create_client("c", read_only_methods={"get"}, degradation=policy)
    assert policy.client is client
    policy.force_degradation(2)
    assert client.degradation_steps_down.value == 1
    assert client.degradation_level.value == 2
    with pytest.raises(ValueError):
        service.create_client("d", read_only_methods={"get"}, degradation=policy)


# ---------------------------------------------------------------------------
# Replica-side shedding
# ---------------------------------------------------------------------------
def test_full_queue_sheds_reads_with_explicit_reply():
    overload = OverloadConfig(queue_capacity=2)
    testbed = make_testbed(overload=overload)
    client = testbed.service.create_client("c", read_only_methods={"get"})
    warm_up(testbed, client)

    outcomes = []
    for _ in range(50):  # one burst, no pacing: the queue must overflow
        client.invoke("get", (), QOS, callback=outcomes.append)
    testbed.sim.run(until=8.0)

    assert client.overload_replies.value > 0
    assert len(outcomes) == 50  # every read judged, shed or served
    for handler in testbed.service.all_replicas():
        # capacity + the in-service slot + one unsheddable update
        assert handler.queue_depth_peak <= 2 + 2
    shed_records = list(testbed.trace.filter("replica.shed"))
    assert shed_records
    assert all(r.detail["reason"] == "queue-full" for r in shed_records)


def test_expired_deadline_sheds_on_arrival():
    overload = OverloadConfig(queue_capacity=None)
    testbed = make_testbed(overload=overload)
    client = testbed.service.create_client("c", read_only_methods={"get"})
    warm_up(testbed, client)

    # The link takes 1 ms; a 0.5 ms deadline has always expired on arrival.
    hopeless = QoSSpec(
        staleness_threshold=10, deadline=0.0005, min_probability=0.5
    )
    outcomes = []
    client.invoke("get", (), hopeless, callback=outcomes.append)
    testbed.sim.run(until=6.0)

    assert client.overload_replies.value > 0
    reasons = {
        r.detail["reason"] for r in testbed.trace.filter("replica.shed")
    }
    assert reasons == {"deadline-passed"}
    assert len(outcomes) == 1 and outcomes[0].timing_failure


def test_unbounded_service_never_sheds():
    testbed = make_testbed(overload=None)
    client = testbed.service.create_client("c", read_only_methods={"get"})
    warm_up(testbed, client)
    outcomes = []
    for _ in range(50):
        client.invoke("get", (), QOS, callback=outcomes.append)
    testbed.sim.run(until=8.0)
    assert client.overload_replies.value == 0
    assert all(o.value is not None for o in outcomes)


# ---------------------------------------------------------------------------
# Deferred-read expiry and recovery cleanup
# ---------------------------------------------------------------------------
def deferral_testbed(overload):
    """One primary + one stale secondary whose lazy update is far away."""
    testbed = make_testbed(
        overload=overload, num_primaries=1, num_secondaries=1, lui=30.0
    )
    client = testbed.service.create_client(
        "c", read_only_methods={"get"}, strategy=SecondariesOnly()
    )

    def seed():
        yield client.call("increment")  # secondary now one version behind

    Process(testbed.sim, seed())
    testbed.sim.run(until=1.0)
    return testbed, client


def test_deferred_read_expires_at_client_deadline():
    testbed, client = deferral_testbed(OverloadConfig())
    secondary = testbed.service.secondaries[0]
    tight = QoSSpec(staleness_threshold=0, deadline=0.3, min_probability=0.9)
    outcomes = []
    client.invoke("get", (), tight, callback=outcomes.append)
    testbed.sim.run(until=1.2)
    assert len(secondary._deferred) == 1  # buffered, lazy update 30 s away

    testbed.sim.run(until=5.0)
    assert len(secondary._deferred) == 0
    assert client.overload_replies.value == 1
    reasons = {
        r.detail["reason"] for r in testbed.trace.filter("replica.shed")
    }
    assert reasons == {"defer-expired"}
    assert len(outcomes) == 1 and outcomes[0].timing_failure


def test_recovery_bounces_deferred_reads_even_without_overload_config():
    """The silent-drop bugfix: a view change that clears the deferral
    buffer must send explicit failure replies — with or without overload
    protection configured."""
    testbed, client = deferral_testbed(None)
    service = testbed.service
    secondary = service.secondaries[0]
    tight = QoSSpec(staleness_threshold=0, deadline=5.0, min_probability=0.9)
    outcomes = []
    client.invoke("get", (), tight, callback=outcomes.append)
    testbed.sim.run(until=1.2)
    assert len(secondary._deferred) == 1

    testbed.network.crash(secondary.name)
    testbed.sim.run(until=2.0)
    service.recover_secondary(secondary.name)
    testbed.sim.run(until=3.0)

    assert len(secondary._deferred) == 0
    assert client.overload_replies.value == 1
    reasons = {
        r.detail["reason"] for r in testbed.trace.filter("replica.shed")
    }
    assert reasons == {"defer-dropped-recovery"}


# ---------------------------------------------------------------------------
# Default-off: None and a config that never fires are bit-identical
# ---------------------------------------------------------------------------
def run_signature(overload, seed):
    """Full outcome signature of a small mixed workload."""
    testbed = make_testbed(overload=overload, seed=seed)
    client = testbed.service.create_client("c", read_only_methods={"get"})
    warm_up(testbed, client)
    tight = QoSSpec(staleness_threshold=0, deadline=1.0, min_probability=0.9)
    reader = PeriodicReader(testbed.sim, client, QOS, period=0.05, count=30)
    stale_reader = PeriodicReader(
        testbed.sim, client, tight, period=0.07, count=10
    )

    def updates():
        for _ in range(10):
            yield client.call("increment")
            yield Timeout(0.11)

    Process(testbed.sim, updates())
    testbed.sim.run(until=10.0)
    # Everything observable about each read must match exactly.
    return [
        (o.value, o.response_time, o.timing_failure,
         o.deferred, o.gsn, o.first_replica)
        for o in reader.outcomes + stale_reader.outcomes
    ]


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_default_off_is_bit_identical(seed):
    # Unbounded queue and deferral buffer, and deadlines far above this
    # workload's waits: the protection is installed but never sheds.
    assert run_signature(None, seed) == run_signature(
        OverloadConfig(queue_capacity=None, defer_capacity=None), seed
    )
