"""Golden outcome streams: a pure speed-up must not move a simulated outcome.

Each test runs one short seeded simulation through the public API, reduces
what the clients observed to ordered text lines and compares their sha256
with a recorded digest.  A change that reorders events, draws from an RNG
stream in a different order or records a registry sample differently fails
here, in tier-1, and not only in the perf ledger.

If a change is *meant* to move simulated outcomes, re-record the digests
(run the test, copy the ``got`` value) and say so in the PR.

``paper_cell`` and ``open_loop_4_28`` date from the commit *before* the
message-fabric fast path (PR 12) touched ``src/``.  ``campaign_5s`` was
re-recorded by PR 15, which was meant to move it: the predictor evaluates
``F^I(d)``/``F^D(d)`` from exact window counts cached on ``(ts.version,
tq.version)`` alone, one lookup per evaluation, so the ``predictor_cache_*``
counters this digest hashes count differently (555/264 hits/misses became
372/177); every other line — events, outcomes, recovery, the rest of the
registry — stayed equal, as did the two older digests.
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
    "paper_cell": "98c784ff3e2537f51529b57d9010e9221e5e9d705cd9da19b77db02d62f1a8f0",
    "open_loop_4_28": "265c7f3ddc5bd1491c82c5111642eac77fe24934cd6bc495baa71c97b9300903",
    "campaign_5s": "ee6c195b26680edcf19020dae1c55b381608bb589dee6bc713767b9e0e502a6d",
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


@pytest.fixture(scope="module")
def paper_scenario():
    scenario = build_paper_scenario(
        deadline=0.16,
        min_probability=0.9,
        lazy_update_interval=2.0,
        staleness_threshold=2,
        total_requests=40,
        seed=7,
    )
    scenario.run()
    return scenario


def test_paper_cell_outcome_stream_is_pinned(paper_scenario):
    scenario = paper_scenario
    lines = []
    for client in (scenario.client1, scenario.client2):
        lines.extend(_op_lines(client.read_outcomes, client.update_outcomes))
    lines.append(f"events={scenario.testbed.sim.events_processed}")
    lines.append(f"sent={scenario.testbed.network.messages_sent}")
    _check("paper_cell", lines)


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
    lines.append(f"events={testbed.sim.events_processed}")
    lines.append(f"sent={testbed.network.messages_sent}")
    _check("open_loop_4_28", lines)


def test_chaos_campaign_events_and_registry_are_pinned():
    result = run_campaign(21, duration=5.0)
    lines = [
        f"faults={result.faults_injected}/{result.faults_skipped} "
        f"reads={result.reads_issued}/{result.reads_resolved} "
        f"late={result.timing_failures} acks={result.updates_acked} "
        f"violations={len(result.violations)}",
        f"recovery={sorted(result.recovery.items())!r}",
    ]
    lines.extend(result.events)
    lines.extend(
        f"{series}={entry!r}"
        for series, entry in sorted(result.metrics.items())
        if parse_series(series)[0] != WALL_CLOCK_SERIES
    )
    _check("campaign_5s", lines)
