"""Golden outcome streams: a pure speed-up must not move a simulated outcome.

Each test runs one short seeded simulation through the public API, reduces
what the clients observed to ordered text lines and compares their sha256
with a recorded digest.  A change that reorders events, draws from an RNG
stream in a different order or records a registry sample differently fails
here, in tier-1, and not only in the perf ledger.

If a change is *meant* to move simulated outcomes, re-record the digests
(run the test, copy the ``got`` value) and say so in the PR.

The two fault-free streams are pinned in two parts: ``outcomes`` hashes the
per-operation lines (what the clients observed) and ``cost`` keeps the
kernel's fired events and the fabric's sent messages.  A change to the
substrate may move ``cost`` — and says why here — while ``outcomes`` stays.

``paper_cell`` and ``open_loop_4_28`` date from the commit *before* the
message-fabric fast path (PR 12) touched ``src/`` (split in two by PR 17 at
its parent commit: the joined lines still hash to the PR 12 digests).  PR 17
then re-recorded their ``cost`` and only that — ``events=8930 sent=5109`` and
``events=9729 sent=7729`` before it: while the fabric is fault-free a group
endpoint's heartbeats are evaluated at the membership sweep and not sent, so
each endpoint costs one timer event per run where it cost a timer, a send and
an arrival four times a simulated second.  ``campaign_5s`` builds its fault
engine at t = 0, beats for real throughout, and did not move.  ``campaign_5s`` was
re-recorded by PR 15, which was meant to move it: the predictor evaluates
``F^I(d)``/``F^D(d)`` from exact window counts cached on ``(ts.version,
tq.version)`` alone, one lookup per evaluation, so the ``predictor_cache_*``
counters this digest hashes count differently (555/264 hits/misses became
372/177); every other line — events, outcomes, recovery, the rest of the
registry — stayed equal, as did the two older digests.

PR 20 re-recorded the two ``cost`` lines again, and only those —
``events=4523 sent=2899`` and ``events=7559 sent=6609`` before it: while the
fabric is fault-free and a channel's round trip is far inside ``rto``, a
``GroupDataMsg`` is settled at its sender the instant it is delivered, so no
``GroupAckMsg`` is sent (every second message was one) and no retransmit
timer is armed.  The ack's latency draw is kept, so no variate moved and both
``outcomes`` digests held; ``campaign_5s`` expects faults from t = 0, acks on
the wire throughout, and did not move.

PR 21 re-recorded the two ``cost`` lines once more, and only those —
``events=3237 sent=1613`` and ``events=4931 sent=3981`` before it: a read
names the replicas it was dispatched to and the sequencer stamps it there
alone, where it used to broadcast the stamp to every primary and secondary
(300 of the §6 cell's sends and 2,039 of the 4 + 28 cell's were stamps for a
replica that did not hold the read).  The delay of each stamp not sent is
still drawn from its link's stream, so no variate moved and both ``outcomes``
digests held; ``campaign_5s`` runs a retrying client, which keeps the
broadcast, and did not move.

The two ``cost`` lines were then re-recorded once more, and only their
``events`` — ``events=2937`` and ``events=2892`` before: no timer fires that
cannot act.  A secondary ends its commit-gap watchdog and lazy tick at
their first firing (only a primary commits or publishes), and while the
fabric is fault-free a primary's watchdog and the membership sweep stop at
the first check that finds nothing to do and resume on their grid at the
first fault.  Nothing is sent or drawn differently, so ``sent`` and both
``outcomes`` digests held; ``campaign_5s``
expects faults from t = 0, loses only its secondaries' idle chains, and did
not move.

``campaign_5s`` was re-recorded once more when a read came to evaluate only
the candidates Algorithm 1 visits.  Only its ``predictor_*`` series moved:
its ``work_free`` digest (``tests/conftest.py``), recorded at the commit
before, holds.  Neither fault-free stream moved at all.
"""

import hashlib

import pytest

from repro.core.client import WALL_CLOCK_SERIES
from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.experiments.chaos import run_campaign
from repro.obs.slo import parse_series
from repro.sim.rng import Normal
from repro.workloads.generators import OpenLoopUpdater, PoissonReader
from repro.workloads.scenarios import build_paper_scenario

GOLDEN = {
    "paper_cell.outcomes": "6ad39aba8bdce39f40055e1e27f3aec6ea006bc89bab372ea9c4d36504ef68fd",
    "paper_cell.cost": "events=1890 sent=1313",
    "open_loop_4_28.outcomes": "e805fe6fca85c0f3e34a643f437e80d0db5c2f17811fb9d9b1a60b70c601464b",
    "open_loop_4_28.cost": "events=2382 sent=1942",
    "campaign_5s": "31ea370492b13605cae7f5453c26f83f8c4867802dbe3152cf769eca031aa1e2",
    "campaign_5s.work_free": "fd7527c359d2396af2f519cec7dd2ac148505f30c446bc61fcfd3c6345901124",
}


def _digest(lines):
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _op_lines(reads, updates):
    lines = [
        f"r {o.response_time!r} {o.timing_failure} {o.replicas_selected} "
        f"{o.deferred} {o.gsn} {o.value}"
        for o in reads
    ]
    lines.extend(f"u {o.response_time!r} {o.gsn} {o.value}" for o in updates)
    return lines


def _check(name, lines):
    got = _digest(lines)
    assert got == GOLDEN[name], (
        f"{name}: the seeded outcome stream moved (got {got}); a change "
        f"meant only to make the simulator faster must leave it identical"
    )


def _check_stream(name, op_lines, testbed):
    """``outcomes`` is what the clients saw; ``cost`` is what it took, kept
    in clear so a re-recording shows which count moved and by how much."""
    _check(f"{name}.outcomes", op_lines)
    cost = (
        f"events={testbed.sim.events_processed} "
        f"sent={testbed.network.messages_sent.value}"
    )
    assert cost == GOLDEN[f"{name}.cost"], f"{name}: kernel/fabric cost moved"


PAPER_CELL = dict(
    deadline=0.16,
    min_probability=0.9,
    lazy_update_interval=2.0,
    staleness_threshold=2,
    total_requests=40,
    seed=7,
)


@pytest.fixture(scope="module")
def paper_scenario():
    scenario = build_paper_scenario(**PAPER_CELL)
    scenario.run()
    return scenario


def test_paper_cell_outcome_stream_is_pinned(paper_scenario):
    scenario = paper_scenario
    lines = []
    for client in (scenario.client1, scenario.client2):
        lines.extend(_op_lines(client.read_outcomes, client.update_outcomes))
    _check_stream("paper_cell", lines, scenario.testbed)


def test_paper_cell_is_the_same_cell_with_the_prediction_cache_off(paper_scenario):
    """Counts and values are cached, never approximated: a cell whose
    clients recompute every ``F^I(d)``/``F^D(d)`` from the windows on every
    read observes what the shipped cell observes."""
    uncached = build_paper_scenario(**PAPER_CELL)
    for client in (uncached.client1, uncached.client2):
        client.handler.predictor.use_cache = False
    uncached.run()
    for shipped, recomputed in (
        (paper_scenario.client1, uncached.client1),
        (paper_scenario.client2, uncached.client2),
    ):
        # A read evaluates only the replicas it visits, and on this cell
        # each of them has new windows since it was last evaluated: the
        # cache is consulted and misses, and changes nothing.
        assert shipped.handler.predictor.cache_misses.value > 0
        assert recomputed.handler.predictor.cache_stats == {
            "hits": 0, "misses": 0, "invalidations": 0
        }
        assert shipped.read_outcomes == recomputed.read_outcomes
        assert shipped.update_outcomes == recomputed.update_outcomes
        assert (
            shipped.handler.predictor.evaluations.value
            == recomputed.handler.predictor.evaluations.value
        )


def test_paper_cell_is_the_same_cell_with_acks_and_beats_on_the_wire(paper_scenario):
    """No client waits on a group-layer ack or on a heartbeat: a cell whose
    fabric expects faults from t = 0 — every ``GroupDataMsg`` acked with a
    message and guarded by a retransmit timer, every beat sent — observes
    what the fault-free cell observes, at nearly twice the messages."""
    wired = build_paper_scenario(**PAPER_CELL)
    wired.testbed.network.expect_faults()
    wired.run()
    for lazy, on_the_wire in (
        (paper_scenario.client1, wired.client1),
        (paper_scenario.client2, wired.client2),
    ):
        assert lazy.read_outcomes == on_the_wire.read_outcomes
        assert lazy.update_outcomes == on_the_wire.update_outcomes
    assert paper_scenario.testbed.network.fault_free
    assert (
        wired.testbed.network.messages_sent.value
        > 1.5 * paper_scenario.testbed.network.messages_sent.value
    )


def test_paper_cell_is_the_same_cell_with_the_stamp_broadcast(
    paper_scenario, broadcast_stamps
):
    """Nobody outside the read's targets does anything with its stamp: a cell
    whose clients name no targets — the sequencer broadcasts every stamp, as
    in the paper — observes what the shipped cell observes, at more messages."""
    paper = build_paper_scenario(**PAPER_CELL)
    for client in (paper.client1, paper.client2):
        broadcast_stamps(client.handler)
    paper.run()
    for named, broadcast in (
        (paper_scenario.client1, paper.client1),
        (paper_scenario.client2, paper.client2),
    ):
        assert named.read_outcomes == broadcast.read_outcomes
        assert named.update_outcomes == broadcast.update_outcomes
    reads = sum(
        len(client.read_outcomes) for client in (paper.client1, paper.client2)
    )
    selected = sum(
        outcome.replicas_selected
        for client in (paper.client1, paper.client2)
        for outcome in client.read_outcomes
    )
    replicas = len(paper.testbed.service.all_replicas()) - 1
    assert (
        paper.testbed.network.messages_sent.value
        - paper_scenario.testbed.network.messages_sent.value
        == reads * replicas - selected
    )


def test_paper_cell_tombstones_are_the_cancelled_entries_in_the_heap(paper_scenario):
    """The cell cancels fired timers all the time (a lazy tick re-arming
    itself, a timeout that won its race); none may count as a tombstone."""
    sim = paper_scenario.testbed.sim
    in_heap = sum(entry[-1].cancelled for entry in sim._heap)
    assert sim.tombstones == in_heap
    assert sim.pending() == sim.heap_size() - in_heap


def test_open_loop_4_28_outcome_stream_is_pinned():
    testbed = build_testbed(
        ServiceConfig(
            num_primaries=4,
            num_secondaries=28,
            window_size=40,
            read_service_time=Normal(0.050, 0.020, floor=0.005),
        ),
        seed=11,
    )
    service = testbed.service
    reader = PoissonReader(
        testbed.sim,
        service.create_client("reader", read_only_methods={"get"}),
        testbed.rng,
        QoSSpec(staleness_threshold=4, deadline=0.200, min_probability=0.9),
        rate=12.0,
        duration=6.0,
    )
    updater = OpenLoopUpdater(
        testbed.sim,
        service.create_client("feed", read_only_methods={"get"}),
        testbed.rng,
        rate=0.5,
        duration=6.0,
    )
    testbed.sim.run(until=8.0)
    lines = _op_lines([o for _, o in reader.records], updater.outcomes)
    _check_stream("open_loop_4_28", lines, testbed)


def test_chaos_campaign_events_and_registry_are_pinned(work_series):
    result = run_campaign(21, duration=5.0)
    lines = [
        f"faults={result.faults_injected}/{result.faults_skipped} "
        f"reads={result.reads_issued}/{result.reads_resolved} "
        f"late={result.timing_failures} acks={result.updates_acked} "
        f"violations={len(result.violations)}",
        f"recovery={sorted(result.recovery.items())!r}",
    ]
    lines.extend(result.events)
    series = [
        (parse_series(name)[0], f"{name}={entry!r}")
        for name, entry in sorted(result.metrics.items())
        if parse_series(name)[0] != WALL_CLOCK_SERIES
    ]
    _check("campaign_5s", lines + [line for _, line in series])
    _check(
        "campaign_5s.work_free",
        lines + [line for name, line in series if name not in work_series],
    )
