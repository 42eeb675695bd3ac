"""Idle timers: no timer fires that cannot act.

A replica arms the commit-gap watchdog, the lazy tick, the open-loop tuning
tick and (with a φ-detector) the publisher check when it is attached, before
its role is registered.  A replica that never joined the group a chain
serves ends that chain at its first firing.  While the fabric is fault-free,
a primary's watchdog and the membership sweep stop at the first check that
finds nothing to do, and re-arm on the grid their chain would have walked at
the first fault.

The twin tests run a service that is fault-free until a crash or partition
against the same service told to expect faults at t = 0, which runs every
chain throughout: both must observe the same operations and record the same
commit gaps, state transfers and evictions, at the same instants.
"""

from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.detector import DetectorConfig
from repro.core.qos import QoSSpec
from repro.core.selection import SelectionResult, SelectionStrategy
from repro.core.service import ServiceConfig, build_testbed
from repro.core.tuning import StalenessTarget
from repro.groups.membership import MembershipConfig, walk_grid
from repro.net.latency import FixedLatency, LatencyModel
from repro.sim.rng import Distribution, Normal
from repro.sim.tracing import Trace

HEARTBEAT = 0.1
LINK = FixedLatency(0.0011)
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


def make_testbed(seed=1, trace=None, link=LINK, **config):
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
        seed=seed,
        latency=link,
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


# ---------------------------------------------------------------------------
# Per-role timers, in every fabric
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("expect_faults", [True, False])
def test_a_replica_ends_every_chain_its_role_does_not_serve(expect_faults):
    """Only a primary commits, publishes and tunes T_L; only a secondary
    watches the publisher.  Every other chain fires once and is not re-armed."""
    testbed = make_testbed(
        detector=DetectorConfig(), adaptive_lazy_target=StalenessTarget(2, 0.9)
    )
    if expect_faults:
        testbed.network.expect_faults()
    service = testbed.service
    counts = rescheduled(testbed)
    testbed.sim.run(until=3.0)

    primary_chains = ("_lazy_tick", "_gap_check", "_tune_tick")
    for replica in [service.sequencer, *service.primaries]:
        assert all(counts[replica.name, chain] > 1 for chain in primary_chains)
        assert counts[replica.name, "_publisher_check"] == 0
    for replica in service.secondaries:
        assert all(counts[replica.name, chain] == 0 for chain in primary_chains)
        assert counts[replica.name, "_publisher_check"] > 1


def test_a_stamp_cancels_its_reads_gsn_retry():
    """A read that reaches a replica before its stamp arms a GSN retry; the
    stamp that binds it cancels that retry.  In a fault-free cell every
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
    assert testbed.network.fault_free
    assert len(outcomes) == 40
    assert armed[True] > 0
    assert not fired


# ---------------------------------------------------------------------------
# Idle in a fault-free fabric, re-armed on the first fault
# ---------------------------------------------------------------------------
def run_twin(
    expect_faults,
    fault=None,
    fault_at=None,
    slow=None,
    seed=1,
    update_every=0.0937,
    link=LINK,
):
    """A feed of updates and a reader pinned to ``svc-p2`` and ``svc-s1``,
    reading every 94 ms, for 5 s plus 1 s to drain, over ``link``.

    ``slow`` puts ``svc-p2`` behind a ``feed -> svc-p2`` link of that many
    seconds, before the clock starts.  The fault, at ``fault_at``: ``crash``
    ``svc-p2`` and recover it a second later; ``cut`` ``feed -> svc-p2``
    one way for 1.5 s (a commit gap: the reader's stamps run ahead of the
    updates that cannot land); ``isolate`` ``svc-p2`` from everyone for
    0.8 s (evicted).
    """
    trace = Trace()
    testbed = make_testbed(seed=seed, trace=trace, link=link)
    service, network, sim = testbed.service, testbed.network, testbed.sim
    feed = service.create_client("feed")
    reader = service.create_client(
        "reader", read_only_methods={"get"}, strategy=Pick("svc-p2", "svc-s1")
    )
    if slow is not None:
        network.set_link("feed", "svc-p2", FixedLatency(slow))
    if expect_faults:
        network.expect_faults()
    outcomes = {"feed": [], "reader": []}
    for name, client, start, every, args in (
        ("feed", feed, 0.013, update_every, ("increment", (), None)),
        ("reader", reader, 0.0647, 0.0937, ("get", (), QOS)),
    ):
        at = start
        while at < 5.0:
            sim.schedule_at(at, client.invoke, *args, outcomes[name].append)
            at += every

    def inject():
        if fault == "crash":
            network.crash("svc-p2")
            sim.schedule(1.0, service.recover_primary, "svc-p2")
        elif fault == "cut":
            cut = network.partition({"feed"}, {"svc-p2"}, symmetric=False)
            sim.schedule(1.5, network.heal_partition, cut)
        else:
            everyone = set(network.endpoints()) - {"svc-p2"}
            cut = network.partition({"svc-p2"}, everyone)
            sim.schedule(0.8, network.heal_partition, cut)

    # Every watchdog check and sweep from the fault on: the grid the lazy
    # twin resumes on must be the one the wired twin never left.  (Checks
    # of different replicas due at one instant may fire in another order:
    # a resumed chain is scheduled at the fault, a running one before it.)
    firings = []

    def watch(owner, chain, name):
        fire = getattr(owner, chain)

        def spy():
            if fault_at is not None and sim.now >= fault_at:
                firings.append((sim.now, name, chain))
            fire()

        setattr(owner, chain, spy)

    for replica in (service.sequencer, *service.primaries, *service.secondaries):
        watch(replica.catchup, "_gap_check", replica.name)
    watch(testbed.membership, "_sweep", testbed.membership.name)

    if fault is not None:
        sim.schedule_at(fault_at, inject)
    sim.run(until=6.0)
    records = [
        (r.time, r.category, r.actor, sorted(r.detail.items()))
        for r in trace.records
        if r.category in RECORDS
    ]
    return outcomes, records, sorted(firings), testbed


def assert_twins_agree(**scenario):
    wired_ops, wired_records, wired_firings, _ = run_twin(True, **scenario)
    lazy_ops, lazy_records, lazy_firings, lazy = run_twin(False, **scenario)
    assert lazy_ops == wired_ops
    assert lazy_records == wired_records
    assert lazy_firings == wired_firings
    return lazy_records, lazy


def test_fault_free_primaries_and_sweep_go_idle_unless_a_hole_can_outlive_a_period():
    """``svc-p2`` sits behind a link slower than the watchdog period: an
    update lands there 1.3 s after the reader's stamps have run ahead of it,
    so a hole stays open across two checks and the watchdog fetches a
    snapshot — in a fault-free fabric, as it always did.  That primary keeps
    its chain; the others, and the membership sweep, are idle."""
    records, lazy = assert_twins_agree(slow=1.3, update_every=1.9)
    network, service = lazy.network, lazy.service
    assert network.fault_free
    gaps = [r for r in records if r[1] == "replica.commit-gap"]
    assert gaps and {r[2] for r in gaps} == {"svc-p2"}
    assert not [r for r in records if r[1] == "membership.evict"]
    p2 = service.replica_by_name("svc-p2")
    assert p2.catchup.gap_idle_since is None
    assert p2.catchup.gap_watch_event is not None
    for replica in (service.sequencer, service.primaries[0], service.primaries[2]):
        assert replica.catchup.gap_watch_event is None
        assert replica.catchup.gap_idle_since is not None
    assert lazy.membership._idle_since is not None


def test_an_idle_sweep_resumes_on_its_grid_when_a_member_is_admitted():
    testbed = make_testbed()
    membership, sim = testbed.membership, testbed.sim
    sweeps = []
    sweep = membership._sweep
    membership._sweep = lambda: (sweeps.append(sim.now), sweep())
    sim.run(until=1.0)
    # The first sweep runs before the members' first ticks make them lazy;
    # the second finds every one of them lazy and stops the chain.
    assert sweeps == pytest.approx([0.1, 0.2])
    assert membership._idle_since == sweeps[-1]
    sim.schedule_at(1.23, testbed.service.create_client, "late")
    sim.run(until=3.0)
    # Back on the old grid from the admission until the newcomer's first
    # tick (1.33) makes it lazy, then idle again.
    assert sweeps[2:] == pytest.approx([1.3, 1.4])
    assert membership._idle_since == pytest.approx(1.4)
    assert testbed.network.fault_free


@settings(max_examples=40, deadline=None)
@given(
    fault=st.sampled_from(["crash", "cut", "isolate"]),
    fault_at=st.floats(min_value=0.05, max_value=3.0),
    slow=st.sampled_from([None, 0.7]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(fault="cut", fault_at=0.7321, slow=None, seed=1)  # a commit gap
@example(fault="crash", fault_at=1.5013, slow=None, seed=1)  # state transfer
@example(fault="isolate", fault_at=1.2, slow=0.7, seed=1)  # on a check and a sweep
@example(fault="cut", fault_at=0.7999999999999999, slow=None, seed=1)  # on a sweep
def test_first_fault_mid_run_records_what_the_wired_twin_records(
    fault, fault_at, slow, seed
):
    """The fault-free twin re-arms the watchdog and the sweep on their grid
    at the fault; it must then match, line for line and instant for instant,
    the twin whose chains never stopped, and fire every check and sweep
    from the fault on at the instants that twin does.

    Excluded: a crash within a link delay of a beat tick, where the wired
    twin's last beat is still in flight and lands, while the lazy one
    credits the tick before (*Lazy liveness*, DESIGN §8) — one sweep's
    difference in the eviction, not an idle timer's.
    """
    since_tick = fault_at % HEARTBEAT
    assume(fault != "crash" or min(since_tick, HEARTBEAT - since_tick) > 0.002)
    assert_twins_agree(fault=fault, fault_at=fault_at, slow=slow, seed=seed)


class _ShiftedExponential(Distribution):
    """``offset`` plus an exponential delay of mean ``scale``."""

    def __init__(self, scale: float, offset: float) -> None:
        self.scale, self.offset = scale, offset

    def sample(self, rng):
        return self.offset + rng.expovariate(1.0 / self.scale)

    def mean(self) -> float:
        return self.offset + self.scale


#: A link with an unbounded tail whose mean (1.1 ms, as ``LINK``) passes the
#: watchdog's guard.  Its delays reorder requests, so holes open and close
#: at random; one beyond 35 ms has probability e^-43.
EXPONENTIAL = LatencyModel(_ShiftedExponential(0.0008, offset=0.0003))


@settings(max_examples=15, deadline=None)
@given(
    fault=st.sampled_from(["crash", "cut", "isolate"]),
    tick=st.integers(min_value=1, max_value=29),
    offset=st.floats(min_value=0.035, max_value=0.065),
    slow=st.sampled_from([None, 0.7]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_first_fault_over_an_exponential_link_records_what_the_wired_twin_records(
    fault, tick, offset, slow, seed
):
    """The idle watchdog's guard rests on the mean delay (DESIGN §9): over
    a link with an unbounded tail the twins record the same commit gaps,
    state transfers and evictions, and fire the same checks and sweeps, as
    long as no delay outlives a period.

    The fault falls mid-way between two beat ticks: near one, the lazy twin
    credits the beat at the link's mean delay while the wired one's lands
    at the drawn delay (*Lazy liveness*, DESIGN §8).  Per-operation outcomes
    are not compared: after a crash or cut the wired twin retransmits data
    whose ack was lost, which the lazy twin settled at delivery (*Lazy
    acks*, DESIGN §8), and over a random link those extra draws move every
    later delay on it.
    """
    scenario = dict(
        fault=fault,
        fault_at=tick * HEARTBEAT + offset,
        slow=slow,
        seed=seed,
        link=EXPONENTIAL,
    )
    _, wired_records, wired_firings, _ = run_twin(True, **scenario)
    _, lazy_records, lazy_firings, _ = run_twin(False, **scenario)
    assert lazy_records == wired_records
    assert lazy_firings == wired_firings


def test_a_chain_resumes_on_the_grid_it_would_have_walked():
    """The floats are the repeated sums a running chain produces (0.2 + 0.1
    is not 0.3), and a firing due at the very instant of the resume is
    still to come unless the caller counts it as past."""
    assert walk_grid(0.2, 0.1, 0.2) == (None, 0.2)
    assert walk_grid(0.2, 0.1, 0.35) == (0.2, 0.30000000000000004)
    # 0.30000000000000004 + 0.1 == 0.4: due now.
    assert walk_grid(0.2, 0.1, 0.4) == (0.2, 0.30000000000000004)
    assert walk_grid(0.2, 0.1, 0.4, due_now_ran=True) == (
        0.30000000000000004,
        0.4,
    )
