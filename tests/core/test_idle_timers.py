"""Idle timers: no timer fires that cannot act.

A replica arms the lazy tick, the open-loop tuning tick and (with a
φ-detector) the publisher check when it is attached, before its role is
registered.  A replica that never joined the group a chain serves ends that
chain at its first firing.  A primary's commit-gap watchdog runs only while
its GSN is past its CSN: a check that finds it caught up ends the chain,
and the next GSN past the CSN resumes it a period later.  The membership
service runs no sweep chain at all: it checks a member only when it cannot
hear it, at an instant on the grid the sweep chain would have walked.

The twin tests run the idling watchdog against a twin whose watchdog runs
from attach and never idles: both must observe the same operations.
"""

from collections import Counter

import pytest

from repro.core.detector import DetectorConfig
from repro.core.handlers.catchup import CatchUp
from repro.core.handlers.sequential import SequentialReplicaHandler
from repro.core.qos import QoSSpec
from repro.core.selection import SelectionResult, SelectionStrategy
from repro.core.service import ServiceConfig, build_testbed
from repro.core.tuning import StalenessTarget
from repro.experiments.chaos import run_campaign
from repro.groups.membership import Grid, MembershipConfig
from repro.net.latency import FixedLatency
from repro.sim.rng import Normal, seed_for
from repro.sim.tracing import Trace

HEARTBEAT = 0.1
RECORDS = (
    "replica.commit-gap",
    "replica.state-transfer-start",
    "replica.state-transfer-serve",
    "replica.state-transfer-done",
    "membership.evict",
)
QOS = QoSSpec(staleness_threshold=100, deadline=2.0, min_probability=0.5)


class Pick(SelectionStrategy):
    """Selects the replicas it was told to."""

    name = "pick"

    def __init__(self, *names):
        self.names = names

    def select(self, candidates, qos, stale_factor):
        return SelectionResult(self.names, 1.0, True)


def make_testbed(trace=None, **config):
    config.setdefault("read_service_time", Normal(0.012, 0.004, floor=0.002))
    return build_testbed(
        ServiceConfig(
            name="svc",
            num_primaries=3,
            num_secondaries=2,
            lazy_update_interval=0.5,
            membership=MembershipConfig(heartbeat_interval=HEARTBEAT, suspect_timeout=0.35),
            **config,
        ),
        seed=1,
        latency=FixedLatency(0.0011),
        trace=trace,
    )


def rescheduled(testbed):
    """``(owner, callback) -> count`` of every timer armed from now on; a
    replica's collaborators (catch-up, tuner, detector) count as it."""
    counts = Counter()
    sim = testbed.sim
    schedule_at = sim.schedule_at

    def spy(time, callback, *args, priority=0):
        owner = getattr(callback, "__self__", None)
        owner = getattr(owner, "handler", owner)
        counts[getattr(owner, "name", None), callback.__name__] += 1
        return schedule_at(time, callback, *args, priority=priority)

    sim.schedule_at = spy
    return counts


def watchdogs_never_idle(monkeypatch):
    """The twin: every replica arms the commit-gap watchdog on attach, and a
    primary's chain runs from then on, caught up or not; a state transfer
    still holds it."""

    def watch(self):
        handler = self.handler
        if (
            self.gap_watch_event is None
            and not self.recovering
            and handler.has_joined(handler.groups.primary)
        ):
            self._gap_stuck_csn = None
            self.gap_watch_event = handler.sim.schedule(self.gap_delay(), self._gap_check)

    check = CatchUp._gap_check

    def check_and_go_on(self):
        check(self)
        watch(self)

    attached = SequentialReplicaHandler.attached

    def arm_on_attach(self, network, host):
        attached(self, network, host)
        catchup = self.catchup
        catchup.gap_watch_event = self.sim.schedule(
            catchup.gap_delay(), catchup._gap_check
        )

    monkeypatch.setattr(CatchUp, "watch_gap", watch)
    monkeypatch.setattr(CatchUp, "_gap_check", check_and_go_on)
    monkeypatch.setattr(SequentialReplicaHandler, "attached", arm_on_attach)


@pytest.mark.parametrize("never_idle", [False, True])
def test_a_replica_ends_every_chain_its_role_does_not_serve(never_idle, monkeypatch):
    """Only a primary commits, publishes and tunes T_L; only a secondary
    watches the publisher.  Every other chain fires once and is not
    re-armed.  With no GSN assigned no replica re-arms the idling commit-gap
    watchdog: each first check finds its replica caught up.  The never-idle
    twin runs it on every primary throughout and still ends it on every
    secondary."""
    if never_idle:
        watchdogs_never_idle(monkeypatch)
    testbed = make_testbed(
        detector=DetectorConfig(), adaptive_lazy_target=StalenessTarget(2, 0.9)
    )
    service = testbed.service
    counts = rescheduled(testbed)
    testbed.sim.run(until=3.0)

    gap_check = CatchUp._gap_check.__name__
    primary_chains = ("_lazy_tick", "_tune_tick")
    for replica in [service.sequencer, *service.primaries]:
        assert all(counts[replica.name, chain] > 1 for chain in primary_chains)
        assert counts[replica.name, "_publisher_check"] == 0
        if never_idle:
            assert counts[replica.name, gap_check] > 1
            assert replica.catchup.gap_watch_event is not None
    for replica in service.secondaries:
        assert all(counts[replica.name, chain] == 0 for chain in primary_chains)
        assert counts[replica.name, "_publisher_check"] > 1
    idle = service.secondaries if never_idle else service.all_replicas()
    for replica in idle:
        assert counts[replica.name, gap_check] == 0
        assert replica.catchup.gap_watch_event is None


def test_a_stamp_cancels_its_reads_gsn_retry():
    """A read that reaches a replica before its stamp arms a GSN retry; the
    stamp that binds it cancels that retry.  In a cell without faults every
    stamp lands well inside ``gsn_wait_timeout``, so retries are armed and
    none fires."""
    testbed = make_testbed()
    service, sim = testbed.service, testbed.sim
    feed = service.create_client("feed")
    reader = service.create_client(
        "reader", read_only_methods={"get"}, strategy=Pick("svc-p2", "svc-s1")
    )
    fired = Counter()
    retries = set()
    for replica in (service.sequencer, *service.primaries, *service.secondaries):

        def spy(request_id, retry=replica._gsn_retry, name=replica.name):
            fired[name] += 1
            retry(request_id)

        replica._gsn_retry = spy
        retries.add(spy)
    armed = Counter()
    schedule_at = sim.schedule_at

    def count(time, callback, *args, priority=0):
        armed[callback in retries] += 1
        return schedule_at(time, callback, *args, priority=priority)

    sim.schedule_at = count
    outcomes = []
    for at in range(40):
        sim.schedule_at(0.013 + at * 0.0937, feed.invoke, "increment", (), None)
        sim.schedule_at(0.0647 + at * 0.0937, reader.invoke, "get", (), QOS, outcomes.append)
    sim.run(until=5.0)
    assert len(outcomes) == 40
    assert armed[True] > 0
    assert not fired


# ---------------------------------------------------------------------------
# The idling watchdog and its twin
# ---------------------------------------------------------------------------
def run_slow_link(slow=1.3, update_every=1.9):
    """A feed of updates every ``update_every`` seconds and a reader pinned
    to ``svc-p2`` and ``svc-s1``, reading every 94 ms, for 5 s plus 1 s to
    drain.  ``svc-p2`` sits behind a ``feed -> svc-p2`` link of ``slow``
    seconds."""
    trace = Trace()
    testbed = make_testbed(trace=trace)
    service, network, sim = testbed.service, testbed.network, testbed.sim
    feed = service.create_client("feed")
    reader = service.create_client(
        "reader", read_only_methods={"get"}, strategy=Pick("svc-p2", "svc-s1")
    )
    network.set_link("feed", "svc-p2", FixedLatency(slow))
    outcomes = {"feed": [], "reader": []}
    for name, client, start, every, args in (
        ("feed", feed, 0.013, update_every, ("increment", (), None)),
        ("reader", reader, 0.0647, 0.0937, ("get", (), QOS)),
    ):
        at = start
        while at < 5.0:
            sim.schedule_at(at, client.invoke, *args, outcomes[name].append)
            at += every

    sim.run(until=6.0)
    records = [
        (r.time, r.category, r.actor, sorted(r.detail.items()))
        for r in trace.records
        if r.category in RECORDS
    ]
    return outcomes, records, testbed


def test_the_idling_watchdog_fetches_the_snapshot_its_twin_fetches(monkeypatch):
    """``svc-p2`` sits behind a link slower than the watchdog period: an
    update lands there 1.3 s after the reader's stamps have run ahead of it,
    so a hole stays open across two checks and the watchdog fetches a
    snapshot, at the instant the never-idle twin does.  The other replicas'
    watchdogs are idle at the end, and the membership service never arms a
    timer."""
    ops, records, testbed = run_slow_link()
    with monkeypatch.context() as twin:
        watchdogs_never_idle(twin)
        twin_ops, twin_records, _ = run_slow_link()
    assert ops == twin_ops
    assert records == twin_records
    gaps = [r for r in records if r[1] == "replica.commit-gap"]
    assert gaps and {r[2] for r in gaps} == {"svc-p2"}
    assert not [r for r in records if r[1] == "membership.evict"]
    service = testbed.service
    for replica in (service.sequencer, service.primaries[0], service.primaries[2]):
        assert replica.catchup.gap_watch_event is None
    assert not testbed.membership._checks
    assert not [
        r for r in testbed.membership.trace.records if r.category == "membership.amnesty"
    ]


CHAOS_35 = seed_for(0, "chaos", 35)


def _campaign_outcome(seed):
    result = run_campaign(seed)
    return (
        result.reads_issued,
        result.reads_resolved,
        result.timing_failures,
        result.updates_acked,
        result.recovery["retries_sent"],
    )


def test_the_idling_watchdog_serves_a_chaos_campaign_as_its_twin_does(monkeypatch):
    """On a campaign that promotes a sequencer with a hole in its log, the
    idling watchdog leaves the clients' reads, late reads, acks and retries
    where the never-idle twin leaves them.  The watchdog must resume at the
    sequencer's own assignments, not only at read stamps: a sequencer sees
    no stamp, and a watchdog that waits for one leaves the promoted
    sequencer unsynced (147 late reads, 9 acks of 99), a run the chaos
    audit calls clean (``test_checks_catch_mutants.py``)."""
    idle = _campaign_outcome(CHAOS_35)
    watchdogs_never_idle(monkeypatch)
    assert _campaign_outcome(CHAOS_35) == idle


def test_an_idle_sweep_resumes_on_its_grid_when_a_member_is_admitted():
    """A member admitted at 1.23 s that nobody can hear (no endpoint answers
    to its name) is checked at the sweep instant the chain started at t = 0
    would have evicted it at: the first past 1.23 + 0.35 on the 0.1 s grid.
    A member that can be heard arms nothing."""
    checks = []
    testbed = make_testbed()
    membership, sim = testbed.membership, testbed.sim
    schedule_at = sim.schedule_at

    def spy(time, callback, *args, priority=0):
        if callback == membership._check:
            checks.append(time)
        return schedule_at(time, callback, *args, priority=priority)

    sim.schedule_at = spy
    sim.schedule_at(1.0, testbed.service.create_client, "heard")
    sim.schedule_at(1.23, membership.register, "svc-qos", "ghost")
    sim.run(until=3.0)
    assert checks == [1.6000000000000003]
    assert "ghost" not in membership.view_of("svc-qos")


def test_a_chain_resumes_on_the_grid_it_would_have_walked():
    """The detector's grid holds the floats a running chain produces, the
    repeated sums (0.2 + 0.1 is not 0.3), whichever way it is asked."""
    grid = Grid(0.1, 0.1)
    assert grid.last_by(0.1) is None
    assert grid.last_by(0.35) == 0.30000000000000004
    assert grid.first_after(0.3) == 0.30000000000000004
    # 0.30000000000000004 + 0.1 == 0.4: an instant itself is "by" it.
    assert grid.last_by(0.4) == 0.4
    assert grid.last_by(0.2) == 0.2  # asked backwards, walked again
