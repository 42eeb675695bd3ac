"""Deadline-budget-aware client retry, hedging, and failover re-dispatch
(DESIGN.md §9).

The accounting invariant threaded through every scenario: each read is
judged exactly once against its deadline, so retries never inflate or
deflate ``observed_failure_probability`` — recovery activity is reported
through the separate :meth:`ClientHandler.recovery_stats` counters.
"""

import pytest

from repro.core.retry import RetryPolicy
from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.groups.membership import MembershipConfig
from repro.net.latency import FixedLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant
from repro.workloads.generators import PeriodicReader


def make_testbed(num_primaries=2, num_secondaries=2, seed=21):
    config = ServiceConfig(
        name="svc",
        num_primaries=num_primaries,
        num_secondaries=num_secondaries,
        lazy_update_interval=0.4,
        read_service_time=Constant(0.010),
        membership=MembershipConfig(heartbeat_interval=0.1, suspect_timeout=0.35),
        gc_timeout=5.0,  # stranded reads resolve within the test horizon
    )
    return build_testbed(
        config,
        seed=seed,
        latency=FixedLatency(0.001),
    )


QOS = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.5)


def warm_up(testbed, client, reads=10, until=2.0):
    """Seed sliding windows so selection has real measurements."""

    def run():
        yield client.call("increment")
        for _ in range(reads):
            yield client.call("get", (), QOS)
            yield Timeout(0.1)

    Process(testbed.sim, run())
    testbed.sim.run(until=until)


# ---------------------------------------------------------------------------
# Policy validation
# ---------------------------------------------------------------------------
def test_retry_policy_defaults_valid():
    policy = RetryPolicy()
    assert policy.max_retries == 1
    assert not policy.hedge


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_retries": -1},
        {"min_remaining_budget": -0.01},
        {"checkpoint_fraction": 0.0},
        {"checkpoint_fraction": 1.0},
        {"hedge_min_probability": 1.5},
        {"hedge_min_probability": -0.1},
    ],
)
def test_retry_policy_rejects_bad_fields(kwargs):
    # A knob that is a module constant rather than a field is refused as an
    # unknown keyword, so a caller passing it fails instead of being ignored.
    with pytest.raises((TypeError, ValueError)):
        RetryPolicy(**kwargs)


def test_recovery_stats_shape():
    testbed = make_testbed()
    client = testbed.service.create_client(
        "c", read_only_methods={"get"}, retry_policy=RetryPolicy()
    )
    stats = client.recovery_stats()
    assert set(stats) == {
        "retries_sent",
        "hedges_sent",
        "failover_redispatches",
        "retry_resolved",
        "hedge_resolved",
        "reads_salvaged",
        "overload_replies",
        "reads_shed",
        "degradation_steps_down",
        "degradation_steps_up",
        "detector_ejections",
        "detector_hedges",
        "detector_probes",
    }
    assert all(v == 0 for v in stats.values())


def test_every_recovery_counter_has_a_meaning():
    """The fault-recovery table explains each counter the client reports."""
    from repro.experiments.report import RECOVERY_COUNTERS, format_recovery_stats

    client = make_testbed().service.create_client("c", read_only_methods={"get"})
    stats = client.recovery_stats()
    assert set(stats) <= {name for name, _ in RECOVERY_COUNTERS}
    rows = format_recovery_stats(stats).splitlines()[3:]
    assert all(len(row.split(None, 2)) == 3 for row in rows)


# ---------------------------------------------------------------------------
# Retry behaviour
# ---------------------------------------------------------------------------
def crashed_replica_scenario(retry_policy, seed=21, qos=QOS):
    """Reads flow while one replica silently crashes and stays down.

    Returns ``(client, outcomes)`` after the workload drains.  The crash
    lands mid-campaign so some already-dispatched reads are stranded on
    the dead replica — exactly what retries exist to salvage.
    """
    testbed = make_testbed(seed=seed)
    service = testbed.service
    client = service.create_client(
        "c", read_only_methods={"get"}, retry_policy=retry_policy
    )
    warm_up(testbed, client)
    reader = PeriodicReader(testbed.sim, client, qos, period=0.05, count=60)

    # Crash exactly the replicas the warmed selection favours: reads
    # dispatched in the window before the membership eviction are
    # stranded on dead replicas.
    def crash_favourites():
        for name in sorted(set(client.candidates.select(QOS)[0])):
            testbed.network.crash(name)

    testbed.sim.schedule_at(2.5, crash_favourites)
    testbed.sim.run(until=12.0)
    assert len(reader.outcomes) == 60
    return client, reader.outcomes


def test_retry_lowers_timing_failure_frequency():
    """The acceptance comparison: identical workload and crash, with and
    without retries; retries must measurably reduce timing failures and
    be reported separately from the timing statistics."""
    baseline, base_outcomes = crashed_replica_scenario(retry_policy=None)
    retrying, retry_outcomes = crashed_replica_scenario(
        retry_policy=RetryPolicy(max_retries=2)
    )

    base_failures = sum(1 for o in base_outcomes if o.timing_failure)
    retry_failures = sum(1 for o in retry_outcomes if o.timing_failure)
    assert base_failures > 0  # the crash hurts without retries
    assert retry_failures < base_failures

    # Recovery effort is visible in its own counters, not smuggled into
    # the timing statistics: both clients judged every read exactly once.
    assert retrying.retries_sent.value > 0
    assert baseline.recovery_stats() == {k: 0 for k in baseline.recovery_stats()}
    assert baseline.reads_judged.value == retrying.reads_judged.value
    assert retrying.observed_failure_probability < (
        baseline.observed_failure_probability
    )


def test_retry_resolution_is_attributed():
    client, outcomes = crashed_replica_scenario(RetryPolicy(max_retries=2))
    stats = client.recovery_stats()
    # At least one stranded read was completed by its retry target.
    assert stats["retry_resolved"] > 0
    assert stats["retry_resolved"] <= stats["retries_sent"]


def test_budget_guard_suppresses_hopeless_retries():
    """A retry that cannot finish inside the remaining deadline budget is
    wasted load; with the whole deadline (15 ms) under the guard's
    MIN_REMAINING_BUDGET (20 ms), none fire."""
    policy = RetryPolicy(max_retries=2)
    tight = QoSSpec(staleness_threshold=10, deadline=0.015, min_probability=0.5)
    client, outcomes = crashed_replica_scenario(policy, qos=tight)
    assert client.retries_sent.value == 0
    assert sum(1 for o in outcomes if o.timing_failure) > 0


def test_max_retries_bounds_redispatches():
    client, _ = crashed_replica_scenario(RetryPolicy(max_retries=1))
    judged = client.reads_judged.value
    assert client.retries_sent.value <= judged  # at most one per read


# ---------------------------------------------------------------------------
# View-change failover
# ---------------------------------------------------------------------------
def test_eviction_of_all_live_targets_triggers_redispatch():
    testbed = make_testbed()
    service = testbed.service
    client = service.create_client(
        "c",
        read_only_methods={"get"},
        retry_policy=RetryPolicy(max_retries=2),
    )
    warm_up(testbed, client)

    outcomes = []
    long_qos = QoSSpec(staleness_threshold=10, deadline=3.0, min_probability=0.5)

    def run():
        request_id = client.invoke("get", (), long_qos, callback=outcomes.append)
        pending = client.judge.calls[request_id]
        # Kill every replica the read was dispatched to: the deadline is
        # long, so the membership eviction (~0.35 s) arrives first and
        # must re-dispatch immediately rather than wait for the checkpoint.
        for name in sorted(pending.live):
            testbed.network.crash(name)
        yield Timeout(5.0)

    Process(testbed.sim, run())
    testbed.sim.run(until=8.0)

    assert client.failover_redispatches.value >= 1
    assert len(outcomes) == 1
    assert outcomes[0].value is not None
    assert not outcomes[0].timing_failure


# ---------------------------------------------------------------------------
# Hedging
# ---------------------------------------------------------------------------
def hedging_client(testbed):
    """Algorithm 1 always over-provisions to survive one crash, so single
    selections only arise with single-replica strategies — exactly the
    configurations hedging exists to protect."""
    from repro.baselines.strategies import RoundRobinSelection

    return testbed.service.create_client(
        "c",
        read_only_methods={"get"},
        strategy=RoundRobinSelection(),
        retry_policy=RetryPolicy(hedge=True),
    )


def test_hedge_duplicates_demanding_single_selections():
    testbed = make_testbed(num_primaries=3, num_secondaries=3)
    client = hedging_client(testbed)
    warm_up(testbed, client, reads=20, until=4.0)

    demanding = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.95)
    reader = PeriodicReader(testbed.sim, client, demanding, period=0.1, count=20)
    testbed.sim.run(until=8.0)

    assert len(reader.outcomes) == 20
    # Every single-replica selection above the probability bar is hedged
    # to the model's runner-up replica.
    assert client.hedges_sent.value == 20
    stats = client.recovery_stats()
    assert stats["hedges_sent"] == 20
    assert stats["hedge_resolved"] <= 20
    # Hedges are free of accounting side effects: one judgement per read,
    # no retries implied.
    assert client.reads_judged.value >= 20
    assert client.retries_sent.value == 0


def test_no_hedge_below_probability_bar():
    testbed = make_testbed(num_primaries=3, num_secondaries=3)
    client = hedging_client(testbed)
    warm_up(testbed, client, reads=20, until=4.0)
    relaxed = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.5)
    PeriodicReader(testbed.sim, client, relaxed, period=0.1, count=20)
    testbed.sim.run(until=8.0)
    assert client.hedges_sent.value == 0


# ---------------------------------------------------------------------------
# Retry x shedding (DESIGN.md §11)
# ---------------------------------------------------------------------------
def shedding_testbed(retry_policy, seed=21):
    """A trace-enabled testbed whose replicas shed aggressively."""
    from repro.core.overload import OverloadConfig
    from repro.sim.tracing import Trace

    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=2,
        lazy_update_interval=0.4,
        read_service_time=Constant(0.010),
        membership=MembershipConfig(heartbeat_interval=0.1, suspect_timeout=0.35),
        gc_timeout=5.0,
        overload=OverloadConfig(queue_capacity=2),
    )
    testbed = build_testbed(
        config,
        seed=seed,
        latency=FixedLatency(0.001),
        trace=Trace(enabled=True),
    )
    client = testbed.service.create_client(
        "c", read_only_methods={"get"}, retry_policy=retry_policy
    )
    warm_up(testbed, client)
    return testbed, client


def flood(testbed, client, reads=80):
    outcomes = []
    for _ in range(reads):
        client.invoke("get", (), QOS, callback=outcomes.append)
    testbed.sim.run(until=12.0)
    return outcomes


def test_overload_reply_does_not_burn_retry_budget_immediately():
    """A bounced read either re-dispatches to a replica that is NOT
    backing us off, or sleeps until the earliest retry_after expiry — it
    never instantly spends its whole retry budget hammering shedders."""
    testbed, client = shedding_testbed(RetryPolicy(max_retries=1))
    outcomes = flood(testbed, client)

    assert client.overload_replies.value > 0
    assert len(outcomes) == 80  # every flooded read was judged
    # The retry budget bounds re-dispatches: at most one per read, even
    # though far more OverloadReplies than reads arrived.
    assert client.retries_sent.value <= 80
    assert client.overload_replies.value > client.retries_sent.value


def test_never_retries_a_shedding_replica_before_retry_after():
    """Every retry dispatched after an OverloadReply from replica R lands
    either on a different replica or after R's retry_after elapsed."""
    testbed, client = shedding_testbed(RetryPolicy(max_retries=2))
    flood(testbed, client)

    backoff_until: dict[str, float] = {}
    violations = []
    for record in sorted(testbed.trace.records, key=lambda r: r.time):
        if record.category == "client.overload-reply":
            replica = record.detail["replica"]
            until = record.time + record.detail["retry_after"]
            backoff_until[replica] = max(backoff_until.get(replica, 0.0), until)
        elif record.category == "client.retry":
            target = record.detail["target"]
            if record.time < backoff_until.get(target, 0.0) - 1e-12:
                violations.append(
                    (record.time, target, backoff_until[target])
                )
    assert client.retries_sent.value > 0  # the scenario actually exercised retries
    assert not violations


def test_backoff_retry_waits_out_the_shed_window():
    """With every candidate backing off, the retry fires at the earliest
    retry_after expiry — not immediately, and not never."""
    from repro.baselines.strategies import RoundRobinSelection

    testbed, _ = shedding_testbed(RetryPolicy(max_retries=2))
    client = testbed.service.create_client(
        "rr",
        read_only_methods={"get"},
        strategy=RoundRobinSelection(),
        retry_policy=RetryPolicy(max_retries=2),
    )
    warm_up(testbed, client)
    outcomes = []
    for _ in range(40):
        client.invoke("get", (), QOS, callback=outcomes.append)
    testbed.sim.run(until=12.0)

    assert client.overload_replies.value > 0
    assert len(outcomes) == 40
    # Single-replica selections that get bounced recover via the armed
    # back-off retry; some reads resolve only because of it.
    assert client.retries_sent.value > 0
    assert sum(1 for o in outcomes if o.value is not None) > 0
