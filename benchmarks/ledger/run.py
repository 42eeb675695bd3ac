#!/usr/bin/env python3
"""Perf ledger: one command, five seeded workloads, named metrics.

    python3 benchmarks/ledger/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 benchmarks/ledger/run.py --all --seed N [--repeat K] [--traced]
    python3 benchmarks/ledger/run.py --selfcheck

A single-workload run is one fresh process: an untimed warm-up cell, then
``C`` timed cells (``C`` follows from ``--seconds``; cell ``i`` is seeded
``seed_for(seed, workload, i)``), ``gc.collect()`` between cells, one
thread.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
a quarter of the cells untraced and then traced, checks that both passes
produce the same outcomes, and prints the per-layer metrics.  Every line
of output is ``kind name value unit``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when an output check fails.

Metric names, units and bounds are read from ``BENCHMARK.json`` at the
repository root, the one place they are defined.  See ``README.md`` here
for what each metric means and which layer should move which.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"  # span dumps of traced runs; git-ignored

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"ledger: no simulator to measure: {SRC / 'repro'} is missing")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402
from repro.sim.rng import seed_for  # noqa: E402

import accounting  # noqa: E402
import calibrate  # noqa: E402
import cells  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: End-to-end metrics on the simulated clock: exact for a fixed seed.
SIM_CLOCK = (
    "ok_fraction",
    "timely_fraction",
    "sim_read_p50_ms",
    "sim_read_p95_ms",
    "replicas_per_read",
)

IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; "
    "t = time.perf_counter(); import cells; print(time.perf_counter() - t)"
)
IMPORT_SAMPLES = 3


def cell_count(workload: cells.Workload, seconds: float, share: float = 1.0) -> int:
    return max(1, round(workload.cells_per_15s * seconds / 15.0 * share))


def measure_import() -> float:
    """Median wall seconds a fresh interpreter needs to import everything
    the workloads drive (``repro`` and numpy included)."""
    code = IMPORT_PROBE.format(src=str(SRC), here=str(HERE))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def lower_quartile(values) -> float:
    """The value a quarter of the cells stay below.

    Every per-cell figure of a run is reduced this way.  What disturbs a
    cell — another tenant of the host, an injected fault in a campaign —
    only ever makes it slower, so the fast side of the distribution is the
    steady one; a median flips as soon as half the cells are disturbed.
    The slow side is not dropped: ``timely_fraction`` and ``ok_fraction``
    count it on the simulated clock, ``info wall_s`` on the host's.
    """
    values = sorted(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


class Measured:
    """One bracketed cell: its run plus the host-speed normaliser."""

    def __init__(self, run: cells.CellRun, calib_s: float, retries: int) -> None:
        self.outcome = run.outcome
        self.calib_s = calib_s
        self.retries = retries
        self.wall_s = run.run_s
        self.run_ref_s = calibrate.normalise(run.run_s, calib_s)
        self.build_ref_s = calibrate.normalise(run.build_s, calib_s)


def measure_cells(
    workload: cells.Workload, seed: int, count: int, before_cell=None, after_cell=None
) -> List[Measured]:
    """Run cells ``0..count-1``, each between two calibrations.

    ``before_cell()`` runs inside the bracket ahead of every attempt at a
    cell (a drifting host re-runs it); ``after_cell(measured)`` once the
    attempt that counts is in.
    """
    measured = []
    budget = calibrate.RetryBudget(max(1, count // 8))
    for i in range(count):
        cell_seed = seed_for(seed, workload.name, i)

        def one_cell() -> cells.CellRun:
            if before_cell is not None:
                before_cell()
            return workload.run(cell_seed)

        gc.collect()
        measured.append(Measured(*calibrate.bracketed(one_cell, budget)))
        if after_cell is not None:
            after_cell(measured[-1])
    return measured


def emit(kind: str, name: str, value, unit: str = "") -> None:
    print(f"{kind} {name} {value} {unit}".rstrip())


def emit_common(workload, seed, measured: Sequence[Measured], outcomes) -> None:
    emit("info", "workload", workload.name)
    emit("info", "loop", workload.loop)
    emit("info", "seed", seed)
    emit("info", "cells", len(measured), "count")
    emit("info", "ops", sum(o.ops for o in outcomes), "count")
    emit("info", "sim_seconds", sum(o.sim_seconds for o in outcomes), "s")
    emit("info", "wall_s", sum(m.wall_s for m in measured), "s")
    emit("info", "calib_s", statistics.median(m.calib_s for m in measured), "s")
    emit("info", "calib_retries", sum(m.retries for m in measured), "count")
    emit("info", "outcome_digest", accounting.outcome_digest(outcomes))


def finish(metrics: Dict[str, float], expected: Sequence[dict], outcomes, problems) -> int:
    """Print the metrics, what went wrong, and the closing JSON line."""
    units = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(units):
        problems.append(
            f"metrics printed {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    _, _, failed, attempted = accounting.fractions(outcomes)
    for i, outcome in enumerate(outcomes):
        # What a fault campaign's audit finds is measured (ok_fraction);
        # a violation with no fault injected means the run is wrong.
        kind = "audit" if outcome.faults_injected else "problem"
        for violation in outcome.violations:
            emit(kind, f"cell-{i}", violation)
            if not outcome.faults_injected:
                problems.append(violation)
    if failed and not problems:
        problems.append(f"{failed} of {attempted} operations failed")
    for name, value in metrics.items():
        emit("metric", name, repr(value), units.get(name, "?"))
    for problem in problems:
        emit("problem", "-", problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")}
            for name, value in metrics.items()
        },
    }))
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------
def end_to_end_metrics(
    measured: Sequence[Measured], import_ref_s: float
) -> Dict[str, float]:
    outcomes = [m.outcome for m in measured]
    ok, timely, _, _ = accounting.fractions(outcomes)
    judged = sum(o.judged_attempted for o in outcomes)
    return {
        "host_us_per_op": 1e6 * lower_quartile(
            m.run_ref_s / m.outcome.ops for m in measured
        ),
        "setup_s": import_ref_s
        + len(measured) * lower_quartile(m.build_ref_s for m in measured),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_fraction": ok,
        "timely_fraction": timely,
        "sim_read_p50_ms": accounting.quantile_ms(
            accounting.pooled_read_latency(outcomes), 0.50),
        "sim_read_p95_ms": lower_quartile(
            accounting.quantile_ms(o.read_latency, 0.95) for o in outcomes),
        "replicas_per_read": sum(o.judged_selected for o in outcomes) / judged,
    }


def run_untraced(workload: cells.Workload, seed: int, seconds: float) -> int:
    import_s, import_calib, _ = calibrate.bracketed(
        measure_import, calibrate.RetryBudget(0)
    )
    workload.run(seed_for(seed, workload.name, "warmup"))
    # Only the traced run reads the registry snapshots; kept here they
    # would count towards the peak memory this run reports.
    measured = measure_cells(
        workload, seed, cell_count(workload, seconds),
        after_cell=lambda cell: cell.outcome.snapshot.clear(),
    )
    outcomes = [m.outcome for m in measured]
    metrics = end_to_end_metrics(
        measured, calibrate.normalise(import_s, import_calib)
    )
    emit_common(workload, seed, measured, outcomes)
    pooled = accounting.pooled_read_latency(outcomes)
    emit("info", "read_latency_samples", pooled.size, "count")
    emit("info", "pooled_read_p99_ms", repr(accounting.quantile_ms(pooled, 0.99)), "ms")
    emit("info", "raw_us_per_op", repr(1e6 * lower_quartile(
        m.wall_s / m.outcome.ops for m in measured
    )), "us/op")
    emit("info", "import_wall_s", repr(import_s), "s")
    return finish(metrics, SPEC["end_to_end"], outcomes, [])


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------
class SpanTotals:
    """Tracer totals summed over cells, times in reference-host seconds.

    ``overhead_s`` is what tracing added to the cells in total (traced
    minus untraced run time).  It is spread evenly over the spans and
    taken back out of ``self``: each span gives up ``inner_share`` of one
    span's overhead for itself and the rest for each of its children.
    """

    TIMES = ("self", "inclusive")

    def __init__(self, inner_share: float) -> None:
        self.inner_share = inner_share
        self.by_key: Dict[Tuple[str, str], Dict[str, float]] = {}

    def add(self, totals: Dict[Tuple[str, str], Dict[str, float]], calib_s: float) -> None:
        for key, fields in totals.items():
            have = self.by_key.setdefault(key, dict.fromkeys(fields, 0.0))
            for field, value in fields.items():
                if field in self.TIMES:
                    value = calibrate.normalise(value, calib_s)
                have[field] += value

    def remove_overhead(self, overhead_s: float) -> None:
        per_span = max(0.0, overhead_s) / max(1.0, self.total("calls"))
        for fields in self.by_key.values():
            cost = per_span * (
                self.inner_share * fields["calls"]
                + (1.0 - self.inner_share) * fields["children"]
            )
            fields["net_self"] = max(0.0, fields["self"] - cost)

    def layer(self, layer: str, field: str = "net_self") -> float:
        return sum(f[field] for (l, _), f in self.by_key.items() if l == layer)

    def span(self, field: str, *names: str) -> float:
        """Sum ``field`` over spans whose name, or name from its last dot
        on (so every ``X.select`` override), is one of ``names``."""
        return sum(
            f[field]
            for (_, name), f in self.by_key.items()
            if name in names or "." + name.rsplit(".", 1)[-1] in names
        )

    def total(self, field: str) -> float:
        return sum(f[field] for f in self.by_key.values())


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    plain: Sequence[Measured],
    traced: Sequence[Measured],
    spans: SpanTotals,
    captured: Dict[str, float],
) -> Dict[str, float]:
    outcomes = [m.outcome for m in plain]
    n_cells = len(outcomes)
    ops = sum(o.ops for o in outcomes)
    reads = sum(o.reads_issued for o in outcomes)
    acked = sum(o.updates_acked for o in outcomes)
    judged = sum(o.judged_attempted for o in outcomes)
    merged = [o.snapshot for o in outcomes]
    counter = lambda name, **labels: sum(
        accounting.snapshot_total(s, name, **labels) for s in merged
    )
    extra = lambda key: sum(o.extra.get(key, 0) for o in outcomes)
    update_latency = np.concatenate([o.update_latency for o in outcomes])
    hits, misses = counter("predictor_cache_hits"), counter("predictor_cache_misses")
    sent = counter("net_messages_sent")

    metrics = {
        f"{layer}.self_us_per_op": 1e6 * ratio(spans.layer(layer), ops)
        for layer in LAYERS
    }
    metrics.update({
        "sim.events_per_op": ratio(captured["events"], ops),
        "sim.schedule_calls_per_op": ratio(
            spans.span("calls", "Simulator.schedule_at")
            + spans.span("amount", "Simulator.schedule_batch"), ops),
        "sim.compactions": ratio(captured["compactions"], n_cells),
        "net.msgs_per_op": ratio(sent, ops),
        "net.send_us_mean": 1e6 * ratio(
            spans.span("inclusive", "Network.send"), spans.span("calls", "Network.send")),
        "net.multicast_fanout_mean": ratio(
            spans.span("children", "Network.multicast"),
            spans.span("calls", "Network.multicast")),
        "net.dropped_fraction": ratio(counter("net_messages_dropped"), sent),
        "groups.msgs_per_op": ratio(spans.span("calls", "FifoSender.send"), ops),
        "groups.retransmits_per_op": ratio(captured["retransmissions"], ops),
        "groups.view_changes": ratio(captured["view_installs"], n_cells),
        "core.select_us_per_read": 1e6 * ratio(spans.span(
            "inclusive", "ResponseTimePredictor.candidate_cdfs",
            "ResponseTimePredictor.staleness_factor", ".select"), reads),
        "core.cache_hit_ratio": ratio(hits, hits + misses),
        "core.predictor_evals_per_read": ratio(counter("predictor_evaluations"), reads),
        "core.replica_reads_per_read": ratio(counter("replica_reads_served"), reads),
        "core.retries_per_read": ratio(counter("client_retries_sent"), reads),
        "core.hedges_per_read": ratio(counter("client_hedges_sent"), reads),
        "core.shed_fraction": ratio(
            counter("client_reads_shed"), reads + counter("client_reads_shed")),
        "core.lost_fraction": ratio(
            sum(o.lost for o in outcomes), sum(o.attempted for o in outcomes)),
        "core.deferred_fraction": ratio(
            sum(o.judged_deferred for o in outcomes), judged),
        "core.snapshot_us_per_update": 1e6 * ratio(
            spans.span("inclusive", ".snapshot", ".restore"), acked),
        "core.lazy_updates_per_update": ratio(
            counter("replica_lazy_updates_sent"), acked),
        "core.state_transfers": ratio(
            counter("replica_state_transfers_completed"), n_cells),
        "core.update_ack_p50_ms": accounting.quantile_ms(update_latency, 0.50),
        "core.update_ack_p99_ms": accounting.quantile_ms(update_latency, 0.99),
        "stats.convolve_calls_per_read": ratio(
            spans.span("calls", "DiscretePmf.convolve", "convolve_all"), reads),
        "stats.pmf_builds_per_read": ratio(spans.span(
            "calls", "DiscretePmf.from_samples", "DiscretePmf.from_histogram"), reads),
        "stats.samples_drawn_per_op": ratio(
            spans.span("amount", "DiscretePmf.sample"), ops),
        "obs.instrument_calls_per_op": ratio(spans.span(
            "calls", "Counter.inc", "Gauge.set", "Histogram.observe",
            "Histogram.observe_many"), ops),
        "obs.trace_records_per_op": ratio(extra("trace_records"), ops),
        "obs.trace_dropped": float(extra("trace_dropped")),
        "obs.recorder_ticks": ratio(extra("recorder_ticks"), n_cells),
        "workloads.arrivals_per_batch": ratio(extra("arrivals"), extra("batches")),
        "workloads.probe_fraction": ratio(extra("probe_reads"), extra("arrivals")),
        "workloads.unresolved_fraction": ratio(
            extra("unresolved"), extra("reads_modeled")),
        "trace.overhead_ratio": ratio(
            sum(m.run_ref_s for m in traced), sum(m.run_ref_s for m in plain)),
        "trace.coverage": ratio(
            spans.total("self"), sum(m.run_ref_s + m.build_ref_s for m in traced)),
    })
    return metrics


def run_traced(workload: cells.Workload, seed: int, seconds: float) -> int:
    count = cell_count(workload, seconds, share=0.25)
    workload.run(seed_for(seed, workload.name, "warmup"))
    plain = measure_cells(workload, seed, count)

    tracer = Tracer()
    tracer.install()
    spans = SpanTotals(tracer.inner_share)
    captured = dict.fromkeys(
        ("events", "compactions", "retransmissions", "view_installs"), 0.0
    )
    first_cell_spans: List[tuple] = []

    def harvest(cell: Measured) -> None:
        # Per cell, so that its span times go onto the reference host's
        # scale with the calibration that bracketed it.
        spans.add(tracer.totals(), cell.calib_s)
        captured["events"] += tracer.captured_sum("Simulator", "events_processed")
        captured["compactions"] += tracer.captured_sum("Simulator", "compactions")
        captured["retransmissions"] += tracer.captured_sum(
            "FifoSender", "retransmissions")
        captured["view_installs"] += tracer.view_installs
        if not first_cell_spans:
            first_cell_spans.extend(tracer.take_spans())

    try:
        traced = measure_cells(
            workload, seed, count,
            before_cell=lambda: tracer.reset(record_spans=not first_cell_spans),
            after_cell=harvest,
        )
    finally:
        tracer.uninstall()

    outcomes = [m.outcome for m in plain]
    problems = []
    if accounting.outcome_digest(outcomes) != accounting.outcome_digest(
        m.outcome for m in traced
    ):
        problems.append("the traced pass did not reproduce the untraced outcomes")
    untraced_events = sum(o.extra.get("events", 0) for o in outcomes)
    if untraced_events and untraced_events != captured["events"]:
        problems.append(
            f"traced pass fired {captured['events']} events, untraced {untraced_events}"
        )

    spans.remove_overhead(
        sum(m.run_ref_s for m in traced) - sum(m.run_ref_s for m in plain)
    )
    metrics = per_layer_metrics(plain, traced, spans, captured)
    emit_common(workload, seed, plain, outcomes)
    emit("info", "traced_wall_s", sum(m.wall_s for m in traced), "s")
    emit("info", "spans", int(spans.total("calls")), "count")
    emit("info", "tracer_inner_share", repr(tracer.inner_share), "ratio")
    total_self = spans.total("net_self")
    for layer in LAYERS + ("glue", "other"):
        emit("info", f"share.{layer}", repr(ratio(spans.layer(layer), total_self)), "ratio")
    emit("info", "share.snapshot_restore", repr(ratio(
        spans.span("inclusive", ".snapshot", ".restore"),
        sum(m.run_ref_s for m in traced))), "ratio")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}.jsonl"
    written = tracer.write_spans(
        str(path), first_cell_spans, f"{workload.name}/{seed}/0"
    )
    emit("info", "spans_written", written, "count")
    emit("info", "spans_file", path.relative_to(ROOT))
    return finish(metrics, SPEC["per_layer"], outcomes, problems)


# ---------------------------------------------------------------------------
# --all [--repeat K]: every workload, each in a fresh process
# ---------------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: float, trace: int) -> Tuple[dict, Dict[str, str]]:
    """One single-workload run in its own interpreter.

    Returns its closing JSON object and its ``info`` lines; its output is
    passed through.
    """
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload}: run printed no result (exit {done.returncode})")
    info = {
        parts[1]: parts[2]
        for parts in (line.split(" ") for line in lines)
        if parts[0] == "info" and len(parts) >= 3
    }
    return json.loads(lines[-1]), info


def run_all(seed: int, seconds: float, trace: int, repeat: int) -> int:
    results: Dict[Tuple[str, str], List[float]] = {}
    digests: Dict[str, List[str]] = {}
    correct = True
    for _ in range(repeat):
        for workload in cells.WORKLOADS:
            result, info = run_child(workload.name, seed, seconds, trace)
            print()
            correct = correct and result["correct"]
            digests.setdefault(workload.name, []).append(info["outcome_digest"])
            for name, entry in result["metrics"].items():
                results.setdefault((workload.name, name), []).append(entry["value"])
    if repeat < 2 or trace:
        return 0 if correct else 1

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    agree = correct
    for workload, seen in digests.items():
        same = len(set(seen)) == 1
        agree = agree and same
        emit("agreement", f"{workload}.outcome_digest", "same" if same else "DIFFERENT")
    for (workload, name), values in results.items():
        spread = (max(values) - min(values)) / statistics.median(values)
        limit = 0.0 if name in SIM_CLOCK else bounds[name]
        ok = spread <= limit
        agree = agree and ok
        emit(
            "agreement", f"{workload}.{name}",
            " ".join(repr(v) for v in values)
            + f" spread={spread:.4f} bound={limit} {'ok' if ok else 'OUTSIDE'}",
        )
    print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


# ---------------------------------------------------------------------------
# --selfcheck
# ---------------------------------------------------------------------------
def _synthetic_cell(**changes) -> accounting.CellOutcome:
    fields = dict(
        reads_issued=100, reads_resolved=100, reads_shed=0,
        updates_issued=50, updates_acked=50,
        staleness_violations=0, violations=[],
        judged_attempted=100, judged_timely=100,
        judged_selected=200, judged_deferred=0,
        read_latency=np.empty(0), update_latency=np.empty(0),
        digest="", sim_seconds=1.0,
    )
    fields.update(changes)
    return accounting.CellOutcome(**fields)


def check_accounting() -> List[str]:
    """A lost read, a lost update, a staleness violation and a correctness
    violation must each count as failed and lower ``ok_fraction``; a lost
    read must also lower ``timely_fraction``."""
    problems = []
    clean_ok, clean_timely, clean_failed, _ = accounting.fractions([_synthetic_cell()])
    if clean_ok != 1.0 or clean_timely != 1.0 or clean_failed:
        problems.append("accounting: a clean cell is not clean")
    cases = {
        "unresolved read": dict(reads_resolved=99, judged_timely=99),
        "unacked update": dict(updates_acked=49),
        "staleness violation": dict(staleness_violations=1),
        "shed read": dict(reads_shed=1, judged_attempted=101),
        "invariant violation": dict(violations=["synthetic"]),
    }
    for label, changes in cases.items():
        ok, timely, failed, _ = accounting.fractions([_synthetic_cell(**changes)])
        if not (ok < clean_ok and failed > 0):
            problems.append(f"accounting: {label} did not count as failed")
        if label in ("unresolved read", "shed read") and not timely < clean_timely:
            problems.append(f"accounting: {label} did not lower timely_fraction")
    ok, timely, failed, _ = accounting.fractions([_synthetic_cell(
        faults_injected=True, reads_resolved=99, judged_timely=99)])
    if not (ok < clean_ok and timely < clean_timely) or failed:
        problems.append(
            "accounting: a read lost to an injected fault must lower ok_fraction "
            "and timely_fraction without failing the run"
        )
    return problems


def check_fluid_parity(seed: int) -> List[str]:
    """``fluid_1m`` is assembled from public parts; it must be the cell
    ``run_scale_cell`` runs."""
    from repro.experiments.scale import run_scale_cell

    ours = cells.run_fluid_1m(seed).outcome
    params = {k: v for k, v in cells.FLUID.items() if k != "users"}
    theirs = run_scale_cell(cells.FLUID["users"], seed=seed, **params)
    mine = (
        int(ours.extra["reads_modeled"] + ours.extra["probe_reads"]),
        ours.judged_attempted - ours.judged_timely,
        int(ours.extra["batches"]),
        int(ours.extra["probe_reads"]),
    )
    shipped = (
        theirs.cell.reads, theirs.cell.timing_failures, theirs.batches,
        theirs.probe_reads,
    )
    # The gateway's counters also see warm-up probes, the cell does not.
    if mine[0] != shipped[0] or mine[2:] != shipped[2:] or mine[1] < shipped[1]:
        return [f"fluid_1m {mine} is not run_scale_cell {shipped}"]
    return []


def selfcheck(seed: int, seconds: float) -> int:
    problems = check_accounting()
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    problems += [f"name {n!r} is not [A-Za-z0-9_.-]+" for n in names if not NAME.match(n)]
    if [w["name"] for w in SPEC["workloads"]] != [w.name for w in cells.WORKLOADS]:
        problems.append("BENCHMARK.json and cells.py list different workloads")
    problems += check_fluid_parity(seed)

    tracer = Tracer()
    for workload in cells.WORKLOADS:
        count = cell_count(workload, seconds, share=0.125)
        passes = []
        for traced in (False, False, True):
            if traced:
                tracer.install()
            try:
                passes.append([
                    workload.run(seed_for(seed, workload.name, i)).outcome
                    for i in range(count)
                ])
            finally:
                if traced:
                    tracer.uninstall()
        digests = {accounting.outcome_digest(p) for p in passes}
        _, _, failed, attempted = accounting.fractions(passes[0])
        for outcome in passes[0]:
            if not outcome.faults_injected:
                problems += [f"{workload.name}: {v}" for v in outcome.violations]
        if len(digests) != 1:
            problems.append(f"{workload.name}: two plain passes and a traced one disagree")
        if failed:
            problems.append(f"{workload.name}: {failed} of {attempted} operations failed")
        emit("selfcheck", workload.name, f"cells={count} digest={sorted(digests)[0][:16]}")
    for problem in problems:
        emit("problem", "-", problem)
    print("SELFCHECK OK" if not problems else "SELFCHECK FAILED")
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Perf ledger of the replication simulator; see README.md here."
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=[w.name for w in cells.WORKLOADS])
    mode.add_argument("--all", action="store_true", help="every workload in turn")
    mode.add_argument("--selfcheck", action="store_true",
                      help="determinism, tracer and accounting checks at 1/8 size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="reference-host seconds of timed cells per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced quarter-size run")
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: run K sets and report their agreement")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds)
    if args.all:
        return run_all(args.seed, args.seconds, args.trace, args.repeat)
    workload = cells.BY_NAME[args.workload]
    if args.trace:
        return run_traced(workload, args.seed, args.seconds)
    return run_untraced(workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
