"""Parameter ablations and robustness studies.

The conclusion of the paper mentions "other extensive experiments by
varying the different parameters, such as the lazy update interval and
request delay"; DESIGN.md indexes these as A1–A9:

* A1 ``lui_sweep`` — lazy update interval ∈ {1, 2, 4, 8} s;
* A2 ``request_delay_sweep`` — request delay ∈ {0.25, 0.5, 1, 2} s;
* A3 ``window_sweep`` — sliding window ∈ {5, 10, 20, 40};
* A4 ``staleness_sweep`` — staleness threshold ∈ {0, 1, 2, 4, 8, 16};
* A5 ``baseline_comparison`` — Algorithm 1 vs. the naive strategies;
* A6 ``failover_study`` — crash the sequencer / the lazy publisher / a
  frequently selected replica mid-run and check the run still meets QoS;
* A7 ``adaptive_lui_study`` — closed-loop T_L tuning vs. static intervals;
* A8 ``overload_study`` — selection adapting around a transient overload;
* A9 ``deferral_model_study`` — Eq. 3's independent deferred term vs. the
  correlation-aware variant, out of the paper's regime (DESIGN.md §5a).

Run: ``python -m repro.experiments.ablations [--quick] [--jobs N]``
(``--jobs`` fans the independent cells of each study across worker
processes; the tables are identical for any jobs value).
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.baselines.strategies import (
    AllReplicasSelection,
    FixedSizeSelection,
    PrimaryOnlySelection,
    RandomSingleSelection,
    RoundRobinSelection,
)
from repro.core.selection import SelectionStrategy, StateBasedSelection
from repro.experiments.harness import Figure4Cell, run_figure4_cell
from repro.experiments.report import format_table
from repro.experiments.runner import CellSpec, add_jobs_argument, run_cells
from repro.workloads.scenarios import build_paper_scenario


@dataclass(frozen=True)
class AblationRow:
    """One configuration's summary in an ablation table."""

    label: str
    avg_replicas_selected: float
    timing_failure_probability: float
    deferred_fraction: float
    mean_response_time_ms: float
    meets_qos: bool


def _row(label: str, cell: Figure4Cell) -> AblationRow:
    return AblationRow(
        label=label,
        avg_replicas_selected=cell.avg_replicas_selected,
        timing_failure_probability=cell.timing_failure_probability,
        deferred_fraction=cell.deferred_fraction,
        mean_response_time_ms=cell.mean_response_time * 1000,
        meets_qos=cell.meets_qos(),
    )


def _sweep(
    label: str,
    cells: Sequence[tuple[str, dict]],
    jobs: Optional[int],
    fn: Callable[..., Figure4Cell] = run_figure4_cell,
    **common,
) -> list[AblationRow]:
    """One ablation table: a ``fn`` cell per ``(row label, kwargs)`` on top
    of the ``common`` kwargs, run through :func:`run_cells`."""
    specs = [CellSpec(key=key, fn=fn, kwargs=kwargs) for key, kwargs in cells]
    results = run_cells(specs, jobs=jobs, label=label, common=common)
    return [_row(spec.key, cell) for spec, cell in zip(specs, results)]


# ---------------------------------------------------------------------------
# A1: lazy update interval
# ---------------------------------------------------------------------------
def lui_sweep(
    luis: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    deadline: float = 0.160,
    min_probability: float = 0.9,
    total_requests: int = 400,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> list[AblationRow]:
    """Longer LUI ⇒ staler secondaries ⇒ more deferred reads and more
    replicas needed (§6.1's second observation, extended)."""
    return _sweep(
        "A1-lui",
        [(f"LUI={lui:g}s", dict(lazy_update_interval=lui)) for lui in luis],
        jobs,
        deadline=deadline,
        min_probability=min_probability,
        total_requests=total_requests,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# A2: request delay
# ---------------------------------------------------------------------------
def request_delay_sweep(
    delays: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    deadline: float = 0.160,
    min_probability: float = 0.9,
    total_requests: int = 400,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> list[AblationRow]:
    """Shorter request delay ⇒ higher update arrival rate λ_u ⇒ staler
    secondaries between lazy updates ⇒ more deferrals."""
    return _sweep(
        "A2-delay",
        [
            (f"request_delay={delay:g}s", dict(request_delay=delay))
            for delay in delays
        ],
        jobs,
        deadline=deadline,
        min_probability=min_probability,
        lazy_update_interval=2.0,
        total_requests=total_requests,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# A3: sliding window size
# ---------------------------------------------------------------------------
def _window_cell(
    window: int,
    deadline: float,
    min_probability: float,
    total_requests: int,
    seed: int,
) -> Figure4Cell:
    """One window-size configuration (module-level so cells can pickle)."""
    scenario = build_paper_scenario(
        deadline=deadline,
        min_probability=min_probability,
        lazy_update_interval=2.0,
        total_requests=total_requests,
        seed=seed,
        window_size=window,
    )
    scenario.run()
    return Figure4Cell.from_reads(
        scenario.client2.read_outcomes, deadline, min_probability, 2.0
    )


def window_sweep(
    windows: Sequence[int] = (5, 10, 20, 40),
    deadline: float = 0.160,
    min_probability: float = 0.9,
    total_requests: int = 400,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> list[AblationRow]:
    """Window size trades prediction freshness against noise (§5.2: chosen
    "to include a reasonable number of recently measured values, while
    eliminating obsolete measurements")."""
    return _sweep(
        "A3-window",
        [(f"window={window}", dict(window=window)) for window in windows],
        jobs,
        fn=_window_cell,
        deadline=deadline,
        min_probability=min_probability,
        total_requests=total_requests,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# A4: staleness threshold
# ---------------------------------------------------------------------------
def staleness_sweep(
    thresholds: Sequence[int] = (0, 1, 2, 4, 8, 16),
    deadline: float = 0.160,
    min_probability: float = 0.9,
    lazy_update_interval: float = 4.0,
    total_requests: int = 400,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> list[AblationRow]:
    """§6.1: "when the client specifies a staleness threshold that is much
    smaller than the lazy update interval, fewer replicas are available to
    respond immediately" — relaxing the threshold should monotonically cut
    deferrals and timing failures."""
    return _sweep(
        "A4-staleness",
        [
            (f"a={threshold}", dict(staleness_threshold=threshold))
            for threshold in thresholds
        ],
        jobs,
        deadline=deadline,
        min_probability=min_probability,
        lazy_update_interval=lazy_update_interval,
        total_requests=total_requests,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# A5: baseline strategies
# ---------------------------------------------------------------------------
def baseline_strategies() -> dict[str, Callable[[], SelectionStrategy]]:
    return {
        "algorithm-1": StateBasedSelection,
        "all-replicas": AllReplicasSelection,
        "random-single": lambda: RandomSingleSelection(seed=1),
        "round-robin": RoundRobinSelection,
        "fixed-k3": lambda: FixedSizeSelection(3),
        "primary-only": PrimaryOnlySelection,
    }


def baseline_comparison(
    deadline: float = 0.160,
    min_probability: float = 0.9,
    lazy_update_interval: float = 2.0,
    total_requests: int = 400,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> list[AblationRow]:
    """Algorithm 1 should match all-replicas' failure rate at a fraction of
    its replica usage, and beat the single-replica policies on failures."""
    return _sweep(
        "A5-baselines",
        [
            (label, dict(strategy2=factory()))
            for label, factory in baseline_strategies().items()
        ],
        jobs,
        deadline=deadline,
        min_probability=min_probability,
        lazy_update_interval=lazy_update_interval,
        total_requests=total_requests,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# A6: failure injection
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FailoverResult:
    label: str
    timing_failure_probability: float
    reads: int
    final_sequencer: Optional[str]
    final_publisher: Optional[str]
    updates_converged: bool


def failover_study(
    crash: str,
    deadline: float = 0.200,
    min_probability: float = 0.9,
    total_requests: int = 300,
    crash_after: float = 60.0,
    seed: int = 0,
) -> FailoverResult:
    """Crash one role mid-run: ``sequencer``, ``publisher``, or ``secondary``.

    The run must finish, updates must converge on the surviving primaries,
    and timing failures must stay bounded (Algorithm 1 selects sets that
    tolerate one crash; the membership layer elects replacements).
    """
    scenario = build_paper_scenario(
        deadline=deadline,
        min_probability=min_probability,
        lazy_update_interval=2.0,
        total_requests=total_requests,
        seed=seed,
    )
    testbed = scenario.testbed
    service = scenario.service
    if crash == "sequencer":
        victim = service.sequencer_name
    elif crash == "publisher":
        victim = service.primaries[0].name  # rank-1 member = designated publisher
    elif crash == "secondary":
        victim = service.secondaries[0].name
    else:
        raise ValueError(f"unknown crash target {crash!r}")
    assert victim is not None
    testbed.sim.schedule_at(crash_after, testbed.network.crash, victim)
    scenario.run()

    survivors = [
        p for p in service.primaries if testbed.network.is_up(p.name)
    ]
    any_primary = survivors[0] if survivors else service.primaries[0]
    # The current sequencer no longer executes updates (§4.1: the leader
    # "does not actually service the client's request"), so convergence is
    # asserted over the *serving* survivors only.
    serving = [p for p in survivors if p.name != any_primary.sequencer_name]
    values = {p.app.value for p in serving if hasattr(p.app, "value")}
    summary = Figure4Cell.from_reads(
        scenario.client2.read_outcomes, deadline, min_probability, 2.0
    )
    return FailoverResult(
        label=f"crash-{crash}",
        timing_failure_probability=summary.timing_failure_probability,
        reads=summary.reads,
        final_sequencer=any_primary.sequencer_name,
        final_publisher=getattr(any_primary, "lazy_publisher_name", None),
        updates_converged=len(values) <= 1,
    )


# ---------------------------------------------------------------------------
# A7: adaptive lazy update interval
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AdaptiveLuiRow:
    """Static vs. adaptive T_L under a two-phase update load."""

    label: str
    lazy_updates_sent: int
    staleness_target_hit_fraction: float
    final_interval: float


def adaptive_lui_study(
    quiet_rate: float = 0.2,
    busy_rate: float = 4.0,
    phase_length: float = 60.0,
    threshold: int = 2,
    probability: float = 0.9,
    seed: int = 0,
) -> list[AdaptiveLuiRow]:
    """Quiet phase then an update storm: a static T_L either wastes
    propagation messages when quiet or blows the staleness target when
    busy; the adaptive controller (repro.core.tuning) does neither."""
    from repro.core.service import ServiceConfig, build_testbed
    from repro.core.tuning import StalenessTarget
    from repro.sim.rng import Constant
    from repro.workloads.generators import OpenLoopUpdater

    rows = []
    configurations = [
        ("static T_L=1s", dict(lazy_update_interval=1.0)),
        ("static T_L=4s", dict(lazy_update_interval=4.0)),
        (
            f"adaptive (a={threshold}, p={probability})",
            dict(
                lazy_update_interval=2.0,
                adaptive_lazy_target=StalenessTarget(threshold, probability),
            ),
        ),
    ]
    for label, overrides in configurations:
        config = ServiceConfig(
            name="svc", num_primaries=2, num_secondaries=2,
            read_service_time=Constant(0.010), **overrides,
        )
        testbed = build_testbed(config, seed=seed)
        feed = testbed.service.create_client("feed", read_only_methods={"get"})
        OpenLoopUpdater(
            testbed.sim, feed, testbed.rng, rate=quiet_rate,
            duration=phase_length,
        )
        testbed.sim.schedule_at(
            phase_length,
            lambda tb=testbed, f=feed: OpenLoopUpdater(
                tb.sim, f, tb.rng, rate=busy_rate, duration=phase_length
            ),
        )

        publisher = testbed.service.primaries[0]
        secondary = testbed.service.secondaries[0]
        hits = []

        def sample(tb=testbed, pub=publisher, sec=secondary, hits=hits):
            staleness = max(0, pub.my_csn - sec.my_csn)
            hits.append(staleness <= threshold)
            tb.sim.schedule(0.1, sample)

        testbed.sim.schedule(0.1, sample)
        testbed.sim.run(until=2 * phase_length)
        rows.append(
            AdaptiveLuiRow(
                label=label,
                lazy_updates_sent=publisher.lazy_updates_sent.value,
                staleness_target_hit_fraction=sum(hits) / len(hits),
                final_interval=publisher.lazy_update_interval,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# A8: transient overload adaptivity
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OverloadStudyResult:
    """Selection behaviour around a transient overload of one replica."""

    victim: str
    share_before: float  # victim's share of first-replies before overload
    share_during: float
    share_after: float
    failure_rate_during: float
    reads_during: int


def overload_study(
    overload_factor: float = 10.0,
    phase_length: float = 40.0,
    read_period: float = 0.25,
    deadline: float = 0.200,
    seed: int = 0,
) -> OverloadStudyResult:
    """§1 motivates the design with hosts that "tend to become slow due to
    transient overloads".  Overload one secondary's host mid-run: the
    monitored service times inflate, its predicted CDF collapses, and the
    selection must route around it while keeping failures bounded."""
    from repro.core.qos import QoSSpec
    from repro.core.service import ServiceConfig, build_testbed
    from repro.net.failures import FailureInjector, OverloadWindow
    from repro.sim.rng import Normal
    from repro.workloads.generators import PeriodicReader

    config = ServiceConfig(
        name="svc", num_primaries=2, num_secondaries=4,
        lazy_update_interval=2.0,
        read_service_time=Normal(0.050, 0.010, floor=0.002),
    )
    testbed = build_testbed(config, seed=seed)
    service = testbed.service
    victim = service.secondaries[0]
    host = testbed.network.host_of(victim.name)
    assert host is not None

    injector = FailureInjector(testbed.network)
    injector.overload(
        host,
        OverloadWindow(
            start=phase_length, end=2 * phase_length, factor=overload_factor
        ),
    )

    client = service.create_client("c", read_only_methods={"get"})
    qos = QoSSpec(staleness_threshold=50, deadline=deadline, min_probability=0.9)
    total_reads = int(3 * phase_length / read_period) - 4
    reader = PeriodicReader(
        testbed.sim, client, qos, period=read_period, count=total_reads
    )
    testbed.sim.run(until=3 * phase_length + 30.0)

    # Partition outcomes by issue order (periodic -> index maps to time).
    per_phase = {"before": [], "during": [], "after": []}
    for index, outcome in enumerate(reader.outcomes):
        t = (index + 1) * read_period
        if t < phase_length:
            per_phase["before"].append(outcome)
        elif t < 2 * phase_length:
            per_phase["during"].append(outcome)
        else:
            per_phase["after"].append(outcome)

    def victim_share(outcomes):
        answered = [o for o in outcomes if o.first_replica is not None]
        if not answered:
            return 0.0
        return sum(1 for o in answered if o.first_replica == victim.name) / len(
            answered
        )

    during = per_phase["during"]
    failures = sum(1 for o in during if o.timing_failure)
    return OverloadStudyResult(
        victim=victim.name,
        share_before=victim_share(per_phase["before"]),
        share_during=victim_share(during),
        share_after=victim_share(per_phase["after"]),
        failure_rate_during=failures / len(during) if during else 0.0,
        reads_during=len(during),
    )


# ---------------------------------------------------------------------------
# A9: deferred-read correlation (Eq. 3's independence assumption)
# ---------------------------------------------------------------------------
def deferral_model_study(
    deadline: float = 0.5,
    lazy_update_interval: float = 1.0,
    reads_per_client: int = 30,
    num_clients: int = 6,
    min_probability: float = 0.8,
    staleness_threshold: int = 5,
    seed: int = 0,
) -> list[AblationRow]:
    """Out of the paper's regime (deadline ≈ T_L/2, update pressure well
    above the staleness budget, a large secondary pool), Eq. 3's
    independent deferred term is over-confident because all stale
    secondaries answer after the same lazy update; the correlation-aware
    variant (minimum instead of product) selects more conservatively and
    cuts timing failures.  See DESIGN.md §5a."""
    from repro.core.qos import QoSSpec
    from repro.core.service import ServiceConfig, build_testbed
    from repro.sim.process import Process, Timeout
    from repro.sim.rng import Normal

    rows = []
    for label, make_strategy in [
        ("Eq.3 independent (paper)", lambda: StateBasedSelection()),
        ("correlation-aware",
         lambda: StateBasedSelection(correlated_deferral=True)),
    ]:
        config = ServiceConfig(
            name="svc", num_primaries=5, num_secondaries=15,
            lazy_update_interval=lazy_update_interval,
            read_service_time=Normal(0.050, 0.020, floor=0.002),
        )
        testbed = build_testbed(config, seed=seed)
        service = testbed.service
        qos = QoSSpec(staleness_threshold, deadline, min_probability)
        reads = []
        for i in range(num_clients):
            client = service.create_client(
                f"c{i}", read_only_methods={"get"}, strategy=make_strategy()
            )

            def run(client=client):
                for _ in range(reads_per_client):
                    yield client.call("increment")
                    yield Timeout(0.1)
                    outcome = yield client.call("get", (), qos)
                    reads.append(outcome)
                    yield Timeout(0.1)

            Process(testbed.sim, run())
        testbed.sim.run(until=600.0)
        # Judge the steady state (second half), past window bootstrap.
        steady = reads[len(reads) // 2:]
        cell = Figure4Cell.from_reads(
            steady, deadline, min_probability, lazy_update_interval
        )
        rows.append(_row(label, cell))
    return rows


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
_ROW_HEADERS = [
    "config", "avg_selected", "P(fail)", "deferred", "mean_rt_ms", "QoS met",
]


def _cells(results) -> list[tuple]:
    """Table rows from result dataclasses: fields in declaration order,
    booleans as yes/NO."""
    return [
        tuple(
            ("yes" if v else "NO") if isinstance(v, bool) else v
            for v in dataclasses.astuple(r)
        )
        for r in results
    ]


def _render_rows(title: str, rows: list[AblationRow]) -> str:
    return format_table(_ROW_HEADERS, _cells(rows), title=title)


def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> None:
    parser = argparse.ArgumentParser(
        prog=prog, description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--quick", action="store_true", help="fewer requests, shorter phases"
    )
    add_jobs_argument(parser)
    args = parser.parse_args(argv)
    quick, jobs = args.quick, args.jobs
    n = 150 if quick else 400
    # (title, headers, study): each study returns its rows as dataclasses.
    tables = [
        (title, _ROW_HEADERS, lambda sweep=sweep: sweep(total_requests=n, jobs=jobs))
        for title, sweep in (
            ("A1 — lazy update interval", lui_sweep),
            ("A2 — request delay", request_delay_sweep),
            ("A3 — sliding window size", window_sweep),
            ("A4 — staleness threshold", staleness_sweep),
            ("A5 — selection strategies", baseline_comparison),
        )
    ]
    tables += [
        (
            "A6 — failure injection",
            ["crash", "P(fail)", "reads", "sequencer_after",
             "publisher_after", "converged"],
            lambda: run_cells(
                [
                    CellSpec(key=crash, fn=failover_study, kwargs=dict(crash=crash))
                    for crash in ("sequencer", "publisher", "secondary")
                ],
                jobs=jobs,
                label="A6-failover",
                common=dict(total_requests=100 if quick else 300),
            ),
        ),
        (
            "A7 — adaptive lazy update interval",
            ["config", "lazy_msgs", "target_hit_fraction", "final_T_L"],
            lambda: adaptive_lui_study(phase_length=30.0 if quick else 60.0),
        ),
        (
            "A9 — deferred-read correlation (out-of-regime; DESIGN.md §5a)",
            _ROW_HEADERS,
            lambda: deferral_model_study(reads_per_client=15 if quick else 30),
        ),
        (
            "A8 — transient overload adaptivity",
            ["victim", "share_before", "share_during", "share_after",
             "P(fail) during", "reads_during"],
            lambda: [overload_study(phase_length=20.0 if quick else 40.0)],
        ),
    ]
    for i, (title, headers, study) in enumerate(tables):
        if i:
            print()
        print(format_table(headers, _cells(study()), title=title))


if __name__ == "__main__":
    main()
