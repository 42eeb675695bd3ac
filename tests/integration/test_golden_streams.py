"""Golden outcome streams: a pure speed-up must not move a simulated outcome.

Each test runs one short seeded simulation through the public API, reduces
what the clients observed to ordered text lines and checks their sha256
against its pin in ``benchmarks/pins.json`` (the ``pin`` fixture).  A
change that reorders events, draws from an RNG stream in a different order
or records a registry sample differently fails here, in tier-1, and not
only in the perf ledger.  A change meant to move them runs the equivalence
gate and re-records with ``python3 benchmarks/repin.py``; CHANGES.md and
git hold the history of each re-recording.

The two fault-free streams are pinned in two parts, so a substrate change
can move what a run cost without moving what the clients saw: ``outcomes``
hashes the per-operation lines, and ``cost`` keeps, in clear, the kernel's
fired events and the fabric's sent messages.
"""

import hashlib

import pytest

from repro.core.client import WALL_CLOCK_SERIES
from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.experiments.chaos import run_campaign
from repro.obs.slo import parse_series
from repro.net.latency import FixedLatency
from repro.sim.rng import Normal
from repro.workloads.generators import OpenLoopUpdater, PoissonReader
from repro.workloads.scenarios import build_paper_scenario


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


def _check_stream(pin, name, op_lines, testbed):
    """``outcomes`` is what the clients saw; ``cost`` is what it took, kept
    in clear so a re-recording shows which count moved and by how much."""
    pin(f"{name}.outcomes", _digest(op_lines))
    pin(
        f"{name}.cost",
        f"events={testbed.sim.events_processed} "
        f"sent={testbed.network.messages_sent.value}",
    )


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


def test_paper_cell_outcome_stream_is_pinned(paper_scenario, pin):
    scenario = paper_scenario
    lines = []
    for client in (scenario.client1, scenario.client2):
        lines.extend(_op_lines(client.read_outcomes, client.update_outcomes))
    _check_stream(pin, "paper_cell", lines, scenario.testbed)


def test_paper_cell_is_the_same_cell_with_the_stamp_broadcast(broadcast_stamps):
    """Nobody outside the read's targets does anything with its stamp: a cell
    whose clients name no targets — the sequencer broadcasts every stamp, as
    in the paper — observes what the shipped cell observes, at more messages.
    Both run on jitter-free links: a stamp not sent draws nothing, so on a
    LAN the broadcast's extra stamps would move their links' streams on."""

    def jitter_free(broadcast):
        scenario = build_paper_scenario(**PAPER_CELL)
        network = scenario.testbed.network
        for sender in network.endpoints():
            for recipient in network.endpoints():
                if sender != recipient:
                    network.set_link(sender, recipient, FixedLatency(0.0003))
        if broadcast:
            for client in (scenario.client1, scenario.client2):
                broadcast_stamps(client.handler)
        scenario.run()
        return scenario

    shipped, paper = jitter_free(False), jitter_free(True)
    for named, broadcast in (
        (shipped.client1, paper.client1),
        (shipped.client2, paper.client2),
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
        - shipped.testbed.network.messages_sent.value
        == reads * replicas - selected
    )


def test_paper_cell_tombstones_are_the_cancelled_entries_in_the_heap(paper_scenario):
    """The cell cancels fired timers all the time (a lazy tick re-arming
    itself, a timeout that won its race); none may count as a tombstone."""
    sim = paper_scenario.testbed.sim
    in_heap = sum(entry[-1].cancelled for entry in sim._heap)
    assert sim.tombstones == in_heap
    assert sim.pending() == sim.heap_size() - in_heap


def test_open_loop_4_28_outcome_stream_is_pinned(pin):
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
    _check_stream(pin, "open_loop_4_28", lines, testbed)


def test_chaos_campaign_events_and_registry_are_pinned(work_series, pin):
    """The 5 s campaign's counts, recovery, fault events and registry (minus
    the wall-clock series); ``work_free`` also drops the work series, so a
    change that only evaluates less moves the first digest and not it."""
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
    pin("campaign_5s", _digest(lines + [line for _, line in series]))
    pin(
        "campaign_5s.work_free",
        _digest(lines + [line for name, line in series if name not in work_series]),
    )
