"""The one skeleton behind ``repro chaos | overload | gray | adaptive``.

A campaign is a seeds x modes grid of seeded *cells*.  Each cell builds a
testbed, wires a fault engine to it, runs recorder-start -> warm-up ->
faults -> drain, audits its own *invariants* and dumps its trace if one
broke; across the grid each declared *claim* (a treatment mode against a
baseline mode on one result field) is judged by a paired sign test under
Holm, one table and telemetry report is printed, one JSONL artifact
written, one exit gate applied (DESIGN.md §9a).  Those steps live here as
plain functions; a campaign module keeps its scenario, invariants and
result fields, and declares the rest — its claims too — in one
:class:`Campaign` record.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.core.service import ServiceConfig, Testbed, build_testbed
from repro.experiments.report import (
    format_table,
    render_report,
    save_results,
    write_experiment_artifact,
)
from repro.experiments.runner import CellSpec, add_jobs_argument, run_cells
from repro.groups.membership import MembershipConfig
from repro.net.chaos import ChaosConfig, ChaosEngine, ChaosTargets
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import Timeline, TimeseriesRecorder
from repro.sim.rng import Normal, seed_for
from repro.sim.tracing import Trace
from repro.stats.confidence import holm, sign_test

#: Family-wise level at which a campaign's claims are judged, together.
ALPHA = 0.05

#: The two kinds of claim: the treatment must beat the baseline, or must
#: not lose to it.
WINS = "wins"
NO_WORSE = "no worse"


@dataclass(frozen=True)
class Claim:
    """``treatment`` against ``baseline`` on one per-cell result field,
    paired by seed; ``better`` says which direction of the field wins."""

    treatment: str
    baseline: str
    field: str
    better: str  # "lower" | "higher"
    kind: str = WINS

    @property
    def label(self) -> str:
        verb = "beats" if self.kind == WINS else "no worse than"
        return f"{self.treatment} {verb} {self.baseline} on {self.field}"


@dataclass(frozen=True)
class Verdict:
    """One claim judged over a suite: seeds won, lost and tied by the
    treatment, the median paired difference (treatment - baseline; None
    when no seed has both cells), the raw and Holm-adjusted sign-test p."""

    claim: Claim
    wins: int
    losses: int
    ties: int
    median: float | None
    p: float
    holm_p: float

    @property
    def passed(self) -> bool:
        """A *wins* claim passes when its test rejects "no better"; a *no
        worse* claim fails when its test rejects "no worse"."""
        rejected = self.holm_p < ALPHA
        return rejected if self.claim.kind == WINS else not rejected


@dataclass(frozen=True)
class Campaign:
    """What one campaign declares; the functions below do the rest."""

    #: Names the ``seed_for`` stream, artifact ``meta``, and trace dumps.
    name: str
    #: ``--help`` description (the campaign module's docstring).
    doc: str
    #: ``run_cell(seed=, mode=, duration=, trace_dir=, **extra)``, at module
    #: level so cells pickle to worker processes.
    run_cell: Callable[..., Any]
    #: Modes run for every seed, in table order; ``()`` is one unnamed mode
    #: whose cells take no ``mode`` argument (chaos).
    modes: tuple[str, ...]
    #: ``(seeds, duration)``: the default shape and the ``--quick`` one.
    default: tuple[int, float]
    quick: tuple[int, float]
    #: Result table ``seed [mode] <columns> verdict``: each column is its
    #: header and the function giving a result's cell.
    title: str
    columns: tuple[tuple[str, Callable[[Any], Any]], ...]
    #: Result fields (properties too) of each ``cell`` artifact record.
    cell_fields: tuple[str, ...]
    #: Telemetry report title, and the modes whose registries and recovery
    #: counters it merges (``()``: every cell).
    telemetry_title: str
    telemetry_modes: tuple[str, ...] = ()
    #: What the campaign promises across modes, judged together by
    #: :func:`judge_claims`.  (Cell invariants are the cell function's
    #: business and arrive as ``result.violations``.)
    claims: tuple[Claim, ...] = ()
    #: Suite-wide checks that are not a paired claim (adaptive's
    #: guardrails and bit-identity).
    acceptance: Optional[Callable[[list], list[str]]] = None
    #: Campaign-specific artifact records, after the claim ones.
    extra_records: Optional[Callable[[list], list[dict]]] = None
    #: ``False``: no ``--check``/``--jobs``, the exit gate is always on.
    check_flag: bool = True
    #: Extra flags: declared by ``add_flags(parser)``, turned into extra
    #: ``run_cell`` arguments by ``cell_kwargs(args)``.
    add_flags: Optional[Callable[[argparse.ArgumentParser], None]] = None
    cell_kwargs: Optional[Callable[[argparse.Namespace], dict]] = None


# ---------------------------------------------------------------------------
# Cell building blocks
# ---------------------------------------------------------------------------
def build_campaign_testbed(seed: int, trace: Trace, **service: Any) -> Testbed:
    """The 3-primary + 3-secondary service every testbed campaign faults.

    Fast failure detection (100 ms heartbeats, 350 ms suspicion — the
    membership service inherits both) so a fault window of a second or two
    is long enough to be noticed, healed and recovered from.  ``service``
    carries the per-campaign :class:`ServiceConfig` fields.
    """
    config = ServiceConfig(
        name="svc",
        num_primaries=3,
        num_secondaries=3,
        read_service_time=Normal(0.020, 0.005, floor=0.002),
        membership=MembershipConfig(heartbeat_interval=0.1, suspect_timeout=0.35),
        gsn_wait_timeout=0.15,
        **service,
    )
    return build_testbed(config, seed=seed, trace=trace)


def chaos_engine(
    testbed: Testbed,
    config: ChaosConfig,
    rate_controller: Optional[object] = None,
    repair: Optional[Callable[[str], None]] = None,
    sequencer: Optional[str] = None,
    membership: Optional[str] = None,
) -> ChaosEngine:
    """A fault engine over the testbed's serving replicas.

    The first primary is protected so every audit has ground truth, and
    the engine draws from its own ``chaos.engine`` stream so the schedule
    is a pure function of the seed whatever the protocol does.
    """
    service = testbed.service
    return ChaosEngine(
        testbed.network,
        ChaosTargets(
            primaries=tuple(p.name for p in service.primaries),
            secondaries=tuple(s.name for s in service.secondaries),
            sequencer=sequencer,
            membership=membership,
            protected=(service.primaries[0].name,),
        ),
        config,
        rng=testbed.rng.stream("chaos.engine"),
        repair=repair,
        trace=testbed.trace,
        metrics=testbed.metrics,
        rate_controller=rate_controller,
    )


def storm_chaos_config(
    duration: float, storm_factor: tuple[float, float]
) -> ChaosConfig:
    """A storm-only fault mix: no crashes, partitions, or loss."""
    return ChaosConfig(
        duration=duration,
        mean_interval=1.0,
        crash_weight=0.0,
        partition_weight=0.0,
        overload_weight=0.0,
        loss_weight=0.0,
        load_storm_weight=1.0,
        storm_window=(1.0, 2.5),
        storm_factor=storm_factor,
    )


def run_phases(
    testbed: Testbed,
    engine: Optional[ChaosEngine],
    warmup: float,
    duration: float,
    drain: float,
    interval: Optional[float] = None,
    after_start: Optional[Callable[[], None]] = None,
) -> Optional[TimeseriesRecorder]:
    """Recorder start -> fault-free warm-up -> faults for ``duration`` ->
    drain.

    ``interval`` starts a sim-clock recorder on the testbed's registry and
    returns it (a scenario that brings its own passes none).  ``engine`` is
    ``None`` for a calm control cell.  The caller flushes the recorder,
    after whatever post-drain probing it does.
    """
    sim = testbed.sim
    recorder = None
    if interval is not None:
        recorder = TimeseriesRecorder(
            sim, testbed.metrics, interval=interval
        ).start()
    sim.run(until=warmup)
    if engine is not None:
        engine.start()
    if after_start is not None:
        after_start()
    sim.run(until=warmup + duration + drain)
    return recorder


def engine_events(engine: ChaosEngine) -> list[str]:
    """The injected-fault log as the text lines results and dumps carry."""
    return [f"t={e.time:.3f} {e.kind} {e.target}" for e in engine.events]


def dump_violation_trace(
    name: str,
    result: Any,
    trace: Trace,
    trace_dir: Optional[str],
    tag: str = "EVENT",
    lines: Optional[Sequence[Any]] = None,
) -> None:
    """Write a violating cell's forensics to ``trace_dir``.

    ``<name>-seed<seed>[-<mode>].trace`` holds the violations, then one
    ``tag`` line per entry of ``lines`` (the fault events unless given),
    then every trace record; ``.jsonl`` is its machine-readable twin, one
    JSON object per record.  Clean cells write nothing.
    """
    if not result.violations or trace_dir is None:
        return
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    mode = getattr(result, "mode", None)
    stem = f"{name}-seed{result.seed}" + (f"-{mode}" if mode else "")
    with (directory / f"{stem}.trace").open("w") as fh:
        for line in result.violations:
            fh.write(f"VIOLATION {line}\n")
        for line in result.events if lines is None else lines:
            fh.write(f"{tag} {line}\n")
        for record in trace.records:
            fh.write(
                f"{record.time:.6f} {record.category} "
                f"{record.actor} {record.detail}\n"
            )
    (directory / f"{stem}.jsonl").write_text(trace.to_jsonl())


# ---------------------------------------------------------------------------
# Scoring helpers
# ---------------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; +inf for an empty sample."""
    if not values:
        return float("inf")
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def effective_latency(outcome, deadline: float) -> float:
    """Latency a caller *experienced*: late or lost reads cost 2x the
    deadline, so percentiles cannot be flattered by dropped replies."""
    if outcome.value is not None and outcome.response_time is not None:
        return outcome.response_time
    return 2.0 * deadline


def counter_sum(snapshot: dict, name: str) -> int:
    """Total of one counter over all its label sets in a registry snapshot."""
    total = 0
    for series, entry in snapshot.items():
        if entry.get("type") != "counter":
            continue
        if series == name or series.startswith(name + "{"):
            total += entry["value"]
    return int(total)


def judge_claims(claims: Sequence[Claim], results: list) -> list[Verdict]:
    """Judge every claim over the suite, one family.

    Each seed that ran both modes is one pair: the treatment wins it, loses
    it, or ties.  A claim's p is the exact one-sided sign test of its null
    ("no better" for *wins*, "no worse" for *no worse*), and the claims'
    p-values are Holm-adjusted together at :data:`ALPHA`.  With no seed
    that differs, p is 1: a *wins* claim fails, a *no worse* one passes.
    """
    counted = []
    for claim in claims:
        baseline = {
            r.seed: getattr(r, claim.field) for r in results if r.mode == claim.baseline
        }
        diffs = [
            getattr(r, claim.field) - baseline[r.seed]
            for r in results
            if r.mode == claim.treatment and r.seed in baseline
        ]
        sign = 1 if claim.better == "higher" else -1
        wins = sum(1 for d in diffs if sign * d > 0)
        losses = sum(1 for d in diffs if sign * d < 0)
        p = sign_test(wins, losses) if claim.kind == WINS else sign_test(losses, wins)
        median = statistics.median(diffs) if diffs else None
        counted.append((claim, wins, losses, len(diffs) - wins - losses, median, p))
    adjusted = holm([row[-1] for row in counted])
    return [Verdict(*row, holm_p) for row, holm_p in zip(counted, adjusted)]


# ---------------------------------------------------------------------------
# Suite: run, judge, report, persist
# ---------------------------------------------------------------------------
def run_suite(
    campaign: Campaign,
    seeds: Sequence[int],
    duration: float,
    jobs: int = 1,
    trace_dir: Optional[str] = None,
    progress: bool = False,
    **cell_kwargs: Any,
) -> list:
    """Every mode for every seed; results ordered seed-major.  With
    ``progress``, one line per finished cell goes to stderr."""
    specs = [
        CellSpec(
            (seed, mode),
            campaign.run_cell,
            {
                "seed": seed,
                **({} if mode is None else {"mode": mode}),
                "duration": duration,
                "trace_dir": trace_dir,
                **cell_kwargs,
            },
        )
        for seed in seeds
        for mode in campaign.modes or (None,)
    ]
    return run_cells(specs, jobs=jobs, progress=progress, label=campaign.name)


def suite_violations(campaign: Campaign, results: list) -> list[str]:
    """Cell-level invariant violations, labelled by cell, then every claim
    that did not pass, then whatever the campaign's suite-wide checks
    object to."""
    violations = [
        f"seed {r.seed} [{r.mode}]: {v}" if campaign.modes
        else f"seed {r.seed}: {v}"
        for r in results
        for v in r.violations
    ]
    violations.extend(
        f"{v.claim.field}: claim '{v.claim.label}' fails ({v.wins} won, "
        f"{v.losses} lost, {v.ties} tied; Holm p = {v.holm_p:.3g})"
        for v in judge_claims(campaign.claims, results)
        if not v.passed
    )
    if campaign.acceptance is not None:
        violations.extend(campaign.acceptance(results))
    return violations


def summarize(campaign: Campaign, results: list) -> str:
    """Result table, claims table, merged telemetry report."""
    columns = [
        ("seed", lambda r: r.seed),
        *([("mode", lambda r: r.mode)] if campaign.modes else []),
        *campaign.columns,
        (
            "verdict",
            lambda r: f"{len(r.violations)} VIOLATIONS" if r.violations else "CLEAN",
        ),
    ]
    blocks = [
        format_table(
            [header for header, _ in columns],
            [[cell(r) for _, cell in columns] for r in results],
            title=campaign.title,
        )
    ]
    if campaign.claims:
        blocks.append(format_table(
            ["claim", "won", "lost", "tied", "median diff", "p", "Holm p", "verdict"],
            [
                [
                    v.claim.label, v.wins, v.losses, v.ties,
                    "-" if v.median is None else f"{v.median:+.4g}",
                    f"{v.p:.3g}", f"{v.holm_p:.3g}", "PASS" if v.passed else "FAIL",
                ]
                for v in judge_claims(campaign.claims, results)
            ],
            title=f"claims (paired by seed: sign test, Holm at alpha = {ALPHA})",
        ))
    observed = [
        r
        for r in results
        if not campaign.telemetry_modes or r.mode in campaign.telemetry_modes
    ]
    recovery: dict[str, int] = {}
    for r in observed:
        for key, value in getattr(r, "recovery", {}).items():
            recovery[key] = recovery.get(key, 0) + value
    blocks.append(
        render_report(
            metrics=MetricsRegistry.merge(*(r.metrics for r in observed)),
            recovery=recovery,
            title=campaign.telemetry_title,
        )
    )
    return "\n\n".join(blocks)


def timeline_records(campaign: Campaign, results: list) -> list[dict]:
    """One merged ``timeline`` record per mode (``repro dash`` input).

    The modes whose telemetry the report merges lead, so the dashboard's
    default view — the first record — is the protected configuration.  A
    campaign without modes gets a single ``kind: merged`` record.
    """
    lead = campaign.telemetry_modes
    modes = [*lead, *(m for m in campaign.modes if m not in lead)] or [None]
    records = []
    for mode in modes:
        merged = Timeline.merge_payloads(
            r.timeline for r in results if mode is None or r.mode == mode
        )
        if merged is not None:
            label = {"kind": "merged"} if mode is None else {"mode": mode}
            records.append(
                {"event": "timeline", **label, "timeline": merged.to_dict()}
            )
    return records


def write_metrics_artifact(
    campaign: Campaign, path: str, results: list, seeds: Sequence[int]
) -> None:
    """JSONL artifact: the unified ``meta`` line, one ``cell`` record per
    cell, one ``claim`` record per claim, the campaign's own records, then
    the per-mode merged timelines."""
    records: list[dict] = []
    for r in results:
        record = {"event": "cell", "seed": r.seed}
        if campaign.modes:
            record["mode"] = r.mode
        record.update({name: getattr(r, name) for name in campaign.cell_fields})
        records.append(record)
    records.extend(
        {"event": "claim", **asdict(v), "passed": v.passed}
        for v in judge_claims(campaign.claims, results)
    )
    if campaign.extra_records is not None:
        records.extend(campaign.extra_records(results))
    records.extend(timeline_records(campaign, results))
    write_experiment_artifact(path, campaign.name, records, seeds=list(seeds))


def main(
    campaign: Campaign,
    argv: Optional[list[str]] = None,
    prog: Optional[str] = None,
) -> int:
    """``repro <campaign>``: run the suite, print, gate, persist."""
    seeds_default, duration_default = campaign.default
    quick_seeds, quick_duration = campaign.quick
    parser = argparse.ArgumentParser(prog=prog, description=campaign.doc)
    parser.add_argument(
        "--seeds", type=int, default=seeds_default, metavar="N",
        help="seeded campaigns" + (" per mode" if campaign.modes else ""),
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--duration", type=float, default=duration_default, metavar="SECONDS",
        help="simulated fault window per cell",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"{quick_seeds} seeds x {quick_duration:g}s",
    )
    if campaign.check_flag:
        parser.add_argument(
            "--check", action="store_true",
            help="exit non-zero on any invariant violation or failed claim",
        )
        add_jobs_argument(parser)
    if campaign.add_flags is not None:
        campaign.add_flags(parser)
    parser.add_argument("--save", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--metrics-out", metavar="PATH", help="write telemetry as JSONL"
    )
    parser.add_argument(
        "--trace-dir", metavar="DIR",
        help="dump the full trace of any violating cell here",
    )
    args = parser.parse_args(argv)

    count, duration = (
        campaign.quick if args.quick else (args.seeds, args.duration)
    )
    seeds = [seed_for(args.seed, campaign.name, i) for i in range(count)]
    results = run_suite(
        campaign,
        seeds,
        duration,
        jobs=args.jobs if campaign.check_flag else 1,
        trace_dir=args.trace_dir,
        progress=True,
        **(campaign.cell_kwargs(args) if campaign.cell_kwargs else {}),
    )
    print(summarize(campaign, results))

    violations = suite_violations(campaign, results)
    for line in violations:
        print(f"VIOLATION {line}", file=sys.stderr)

    if args.save:
        save_results(
            args.save,
            [r.__dict__ for r in results],
            meta={
                "experiment": campaign.name,
                "seeds": seeds,
                "duration": duration,
                "violations": violations,
            },
        )
    if args.metrics_out:
        write_metrics_artifact(campaign, args.metrics_out, results, seeds)
        print(f"telemetry written to {args.metrics_out}")

    return 1 if violations and (not campaign.check_flag or args.check) else 0
