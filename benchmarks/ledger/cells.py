"""The five ledger workloads, each as "build one cell, run it, reduce it".

A cell is one independent seeded simulation.  ``run(seed)`` returns a
:class:`CellRun`: the reduced :class:`~accounting.CellOutcome` plus the
host seconds spent building the testbed and generators (``build_s``,
everything before the first simulator step) and stepping the simulator
(``run_s``).  Reducing the outcome is the ledger's own cost and is
timed as neither.

Only public ``repro`` API is driven.  ``paper_cell`` and ``chaos`` call
the shipped scenario/campaign builders verbatim; ``fluid_1m`` assembles
the aggregate branch of ``run_scale_cell`` from its public parts so the
pool's ``AggregateStats`` (latency grid, unresolved count) stays
reachable, and ``run.py --selfcheck`` proves the two agree.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence

import numpy as np

from repro.core.qos import QoSSpec
from repro.core.requests import ReadOutcome, UpdateOutcome
from repro.core.service import ServiceConfig, Testbed, build_testbed
from repro.experiments.chaos import run_campaign
from repro.experiments.scale import (
    READ_RATE_PER_USER,
    UPDATE_RATE_PER_USER,
    scale_config,
)
from repro.sim.kernel import Simulator
from repro.sim.rng import Normal
from repro.sim.tracing import Trace
from repro.workloads.aggregate import AggregatedClientPool, PopulationSpec
from repro.workloads.generators import OpenLoopUpdater, PoissonReader
from repro.workloads.scenarios import build_paper_scenario

from accounting import (
    CellOutcome,
    Histogram,
    client_counts,
    digest_of,
    registry_histogram,
    snapshot_digest_lines,
    snapshot_total,
)

DRAIN_S = 5.0  # simulated seconds an open-loop cell runs on after its last arrival


@dataclass
class CellRun:
    outcome: CellOutcome
    build_s: float
    run_s: float


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # "closed" | "open": how arrivals react to a slow system
    cells_per_15s: int  # cells a 15 s run measures on the reference host
    run: Callable[[int], CellRun]


# ---------------------------------------------------------------------------
# Per-op reduction shared by the discrete workloads
# ---------------------------------------------------------------------------
def _op_lines(
    reads: Sequence[ReadOutcome], updates: Sequence[UpdateOutcome]
) -> List[str]:
    lines = [
        f"r {o.response_time!r} {o.timing_failure} {o.replicas_selected} "
        f"{o.deferred} {o.gsn}"
        for o in reads
    ]
    lines.extend(f"u {o.response_time!r} {o.gsn}" for o in updates)
    return lines


def _latencies(outcomes: Sequence) -> np.ndarray:
    return np.asarray(
        [o.response_time for o in outcomes if o.response_time is not None],
        dtype=float,
    )


def _counter_service_violations(
    testbed: Testbed,
    reads: Sequence[ReadOutcome],
    updates: Sequence[UpdateOutcome],
) -> List[str]:
    """Output checks for a drained cell of the counter service.

    Every update increments the counter once, so the value a reply
    carries must equal the commit number (GSN) it was served at; acked
    GSNs are unique; every replica's state matches its commit number;
    and every serving primary has committed every acked update.
    """
    found: List[str] = []
    for o in reads:
        if o.value is not None and o.value != o.gsn:
            found.append(f"read {o.request_id}: value {o.value} at gsn {o.gsn}")
    gsns = [o.gsn for o in updates]
    if len(set(gsns)) != len(gsns):
        found.append("an update GSN was acked twice")
    for o in updates:
        if o.value != o.gsn or o.gsn <= 0:
            found.append(f"update {o.request_id}: value {o.value} at gsn {o.gsn}")
    acked = max(gsns, default=0)
    service = testbed.service
    for replica in service.primaries + service.secondaries:
        # Secondaries may trail by the lazy interval; primaries may not.
        behind = replica in service.primaries and replica.my_csn < acked
        if behind or replica.app.get() != replica.my_csn:
            found.append(
                f"{replica.name}: csn {replica.my_csn}, state "
                f"{replica.app.get()}, acked up to {acked}"
            )
    return found


def _discrete_outcome(
    testbed: Testbed,
    judged: Sequence[str],
    judged_reads: Sequence[ReadOutcome],
    other_reads: Sequence[ReadOutcome],
    updates: Sequence[UpdateOutcome],
    violations: List[str],
) -> CellOutcome:
    snapshot = testbed.metrics.snapshot()
    all_reads = list(judged_reads) + list(other_reads)
    return CellOutcome(
        **client_counts(snapshot, judged),
        staleness_violations=sum(
            c.staleness_violations for c in testbed.service.clients.values()
        ),
        violations=violations
        + _counter_service_violations(testbed, all_reads, updates),
        read_latency=_latencies(judged_reads),
        update_latency=_latencies(updates),
        digest=digest_of(_op_lines(all_reads, updates)),
        sim_seconds=testbed.sim.now,
        snapshot=snapshot,
        extra={
            "events": testbed.sim.events_processed,
            "compactions": testbed.sim.compactions,
        },
    )


# ---------------------------------------------------------------------------
# paper_cell
# ---------------------------------------------------------------------------
PAPER_STALENESS = 2


def run_paper_cell(seed: int) -> CellRun:
    t0 = time.perf_counter()
    scenario = build_paper_scenario(
        deadline=0.16,
        min_probability=0.9,
        lazy_update_interval=2.0,
        staleness_threshold=PAPER_STALENESS,
        total_requests=150,
        seed=seed,
    )
    t1 = time.perf_counter()
    scenario.run()
    t2 = time.perf_counter()

    violations: List[str] = []
    # Closed loop: a client's read is issued after its previous update
    # was acked, so it may trail that update by at most the threshold.
    for client, threshold in ((scenario.client1, 4), (scenario.client2, PAPER_STALENESS)):
        for update, read in zip(client.update_outcomes, client.read_outcomes):
            if read.gsn >= 0 and read.gsn < update.gsn - threshold:
                violations.append(
                    f"read {read.request_id} at gsn {read.gsn} trails own "
                    f"update gsn {update.gsn} by more than {threshold}"
                )
    outcome = _discrete_outcome(
        scenario.testbed,
        judged=("client-2",),
        judged_reads=scenario.client2.read_outcomes,
        other_reads=scenario.client1.read_outcomes,
        updates=scenario.client1.update_outcomes + scenario.client2.update_outcomes,
        violations=violations,
    )
    return CellRun(outcome, t1 - t0, t2 - t1)


# ---------------------------------------------------------------------------
# wide_read and write_heavy: one open-loop reader, one open-loop updater
# ---------------------------------------------------------------------------
def _run_open_loop(
    seed: int,
    config: ServiceConfig,
    qos: QoSSpec,
    read_rate: float,
    update_rate: float,
    duration: float = 30.0,
) -> CellRun:
    t0 = time.perf_counter()
    testbed = build_testbed(config, seed=seed)
    service = testbed.service
    reader_client = service.create_client("reader", read_only_methods={"get"})
    feed = service.create_client("feed", read_only_methods={"get"})
    reader = PoissonReader(
        testbed.sim, reader_client, testbed.rng, qos, rate=read_rate, duration=duration
    )
    updater = OpenLoopUpdater(
        testbed.sim, feed, testbed.rng, rate=update_rate, duration=duration
    )
    t1 = time.perf_counter()
    testbed.sim.run(until=duration + DRAIN_S)
    t2 = time.perf_counter()

    outcome = _discrete_outcome(
        testbed,
        judged=("reader",),
        judged_reads=[o for _, o in reader.records],
        other_reads=(),
        updates=updater.outcomes,
        violations=[],
    )
    return CellRun(outcome, t1 - t0, t2 - t1)


def run_wide_read(seed: int) -> CellRun:
    return _run_open_loop(
        seed,
        ServiceConfig(
            num_primaries=4,
            num_secondaries=28,
            window_size=40,
            read_service_time=Normal(0.050, 0.020, floor=0.005),
        ),
        QoSSpec(staleness_threshold=4, deadline=0.200, min_probability=0.9),
        read_rate=12.0,
        update_rate=0.5,
    )


def run_write_heavy(seed: int) -> CellRun:
    return _run_open_loop(
        seed,
        ServiceConfig(
            num_primaries=4,
            num_secondaries=6,
            lazy_update_interval=0.5,
            update_service_time=Normal(0.005, 0.002, floor=0.001),
        ),
        QoSSpec(staleness_threshold=30, deadline=0.200, min_probability=0.9),
        read_rate=5.0,
        update_rate=40.0,
    )


# ---------------------------------------------------------------------------
# fluid_1m
# ---------------------------------------------------------------------------
FLUID = dict(
    users=1_000_000,
    deadline=0.16,
    min_probability=0.9,
    lazy_update_interval=2.0,
    staleness_threshold=2,
    duration=30.0,
    warmup=5.0,
)


def run_fluid_1m(seed: int) -> CellRun:
    users = FLUID["users"]
    qos = QoSSpec(
        FLUID["staleness_threshold"], FLUID["deadline"], FLUID["min_probability"]
    )
    t0 = time.perf_counter()
    testbed = build_testbed(scale_config(FLUID["lazy_update_interval"]), seed=seed)
    gateway = testbed.service.create_client(
        "scale-gw", read_only_methods={"get"}, default_qos=qos
    )
    pool = AggregatedClientPool(
        testbed.sim,
        gateway,
        PopulationSpec(
            name=f"pop-{users}",
            clients=users,
            qos=qos,
            read_rate=READ_RATE_PER_USER,
            update_rate=UPDATE_RATE_PER_USER,
        ),
        duration=FLUID["duration"],
        seed=seed,
        warmup=FLUID["warmup"],
    )
    t1 = time.perf_counter()
    testbed.sim.run(until=FLUID["duration"] + DRAIN_S)
    t2 = time.perf_counter()

    stats = pool.stats
    snapshot = testbed.metrics.snapshot()
    # The pool's 1 ms response grid; bin i holds times rounded to i*quantum.
    bins = np.arange(stats.response_hist.size, dtype=float)
    counts = stats.response_hist.astype(np.int64).copy()
    for t in stats.probe_response_times:
        counts[min(int(t / stats.quantum + 0.5), counts.size - 1)] += 1
    latency = Histogram(
        lower=np.maximum(0.0, (bins - 0.5) * stats.quantum),
        upper=(bins + 0.5) * stats.quantum,
        counts=counts,
    )
    violations: List[str] = []
    if stats.timing_failures > stats.reads or stats.unresolved > stats.reads_modeled:
        violations.append("aggregate stats count more failures than reads")
    modeled = int(snapshot_total(snapshot, "aggregate_reads_modeled"))
    if modeled != stats.reads_modeled:
        violations.append(
            f"registry counts {modeled} modeled reads, pool {stats.reads_modeled}"
        )
    outcome = CellOutcome(
        **client_counts(snapshot, ("scale-gw",)),
        staleness_violations=gateway.staleness_violations,
        violations=violations,
        read_latency=latency,
        update_latency=np.empty(0),
        digest=digest_of([
            f"reads={stats.reads} failures={stats.timing_failures} "
            f"deferred={stats.deferred} selected="
            f"{stats.selected_modeled + stats.probe_selected} "
            f"unresolved={stats.unresolved} batches={stats.batches} "
            f"response_sum={stats.response_sum!r}"
        ] + snapshot_digest_lines(snapshot)),
        sim_seconds=testbed.sim.now,
        snapshot=snapshot,
        extra={
            "events": testbed.sim.events_processed,
            "compactions": testbed.sim.compactions,
            "batches": stats.batches,
            "arrivals": stats.reads + stats.warmup_skipped,
            "probe_reads": stats.probe_reads,
            "reads_modeled": stats.reads_modeled,
            "unresolved": stats.unresolved,
        },
    )
    return CellRun(outcome, t1 - t0, t2 - t1)


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------
@contextmanager
def _first_run_clock() -> Iterator[List[float]]:
    """Note when the first ``Simulator.run`` of the block starts.

    ``run_campaign`` builds and runs in one call; this is how its build
    time is told from its run time without re-implementing it.
    """
    started: List[float] = []
    inner = Simulator.run

    def run(self, until=None):
        if not started:
            started.append(time.perf_counter())
        return inner(self, until)

    Simulator.run = run
    try:
        yield started
    finally:
        Simulator.run = inner


def run_chaos(seed: int) -> CellRun:
    trace = Trace(enabled=True)
    t0 = time.perf_counter()
    with _first_run_clock() as started:
        result = run_campaign(seed, duration=20.0, trace=trace)
    t2 = time.perf_counter()
    t1 = started[0]

    snapshot = result.metrics
    outcome = CellOutcome(
        **client_counts(snapshot, ("reader",)),
        staleness_violations=0,  # the campaign's own audit covers staleness
        violations=list(result.violations),
        faults_injected=True,
        read_latency=registry_histogram(
            snapshot, "client_response_time_seconds", client="reader"
        ),
        update_latency=np.empty(0),
        digest=digest_of([
            f"faults={result.faults_injected}/{result.faults_skipped} "
            f"reads={result.reads_issued}/{result.reads_resolved} "
            f"late={result.timing_failures} acks={result.updates_acked} "
            f"violations={len(result.violations)}",
            f"recovery={sorted(result.recovery.items())!r}",
        ] + result.events + snapshot_digest_lines(snapshot)),
        sim_seconds=result.timeline["interval"]
        * (result.timeline["start"] + result.timeline["length"]),
        snapshot=snapshot,
        extra={
            "trace_records": len(trace.records),
            "trace_dropped": trace.dropped,
            "recorder_ticks": result.timeline["length"],
        },
    )
    return CellRun(outcome, t1 - t0, t2 - t1)


#: Why each workload is here is told in BENCHMARK.json and README.md.
WORKLOADS = (
    Workload("paper_cell", "closed", 30, run_paper_cell),
    Workload("wide_read", "open", 16, run_wide_read),
    Workload("write_heavy", "open", 16, run_write_heavy),
    Workload("fluid_1m", "open", 12, run_fluid_1m),
    Workload("chaos", "open", 36, run_chaos),
)

BY_NAME = {w.name: w for w in WORKLOADS}
