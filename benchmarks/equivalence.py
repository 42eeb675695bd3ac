#!/usr/bin/env python3
"""Equivalence gate: is a change that moved the seeded streams still the
same system in distribution?

    python3 benchmarks/equivalence.py --parent DIR --change DIR
        [--panel full|small] [--seed N] [--report PATH]

Runs one fixed panel of seeded experiments in each tree, each tree in its
own process on its own ``src/`` and through the public ``repro`` API only,
over fresh seeds (``--seed`` and up; every pin in ``pins.json`` uses seeds
below 1,000 or a 64-bit ``seed_for`` hash).  Each row of the panel is one
statistic measured once per seed, so a row's per-seed values are
independent draws of it on each side.  A row agrees when a two-sample
Student t test on those values does not reject at family-wise level
:data:`ALPHA` over all rows, by Holm's step-down method.  The exit status is
1 when a row disagrees.  The report (``--report``, Markdown) lists every
row with both means, t, the raw and the Holm-adjusted p, and its verdict.

The ``full`` panel (``small`` is the tier-1 self-test's cut of it):

* Figure 4's 32 cells: P(fail) and replicas selected per read;
* A9's out-of-regime cell, under Eq. 3 and under the correlation-aware term;
* the seeded results that are not a Figure 4 row: A1's shortest and longest
  LUI, the three staleness-model errors and the hot-spot imbalance;
* the four fault campaigns at their default cell length: whether each
  seed's cells are clean (their invariants: a claim is judged over seeds,
  not in one), each claim's paired difference on that seed, and each
  mode's rates;
* read latency (p50, p95) on the five ledger workloads, through each
  tree's own, unedited ``benchmarks/ledger/cells.py``.

Two options show that the gate works; both act on the change side only.
``--change-seed-offset K`` re-seeds it (a pure re-seed must pass), and
``--change-mutant NAME`` injects a known defect from :data:`MUTANTS` (it
must fail).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ALPHA = 0.05
DEFAULT_SEED = 900_000

FIGURE4_CELLS = tuple(
    (probability, lui, deadline_ms)
    for probability in (0.9, 0.5)
    for lui in (2.0, 4.0)
    for deadline_ms in (80, 100, 120, 140, 160, 180, 200, 220)
)
LEDGER_WORKLOADS = ("paper_cell", "wide_read", "write_heavy", "fluid_1m", "chaos")
CAMPAIGNS = ("chaos", "overload", "gray", "adaptive")


# ---------------------------------------------------------------------------
# Panel rows: each producer maps one seed to {row: value}.  They run in the
# worker, so they import ``repro`` (the tree's own) only when called.
# ---------------------------------------------------------------------------
def _rate(part, whole) -> float:
    return part / whole if whole else 0.0


def figure4_rows(seed: int, cells=FIGURE4_CELLS, requests: int = 1000) -> dict:
    from repro.experiments.harness import run_figure4_cell

    rows = {}
    for probability, lui, deadline_ms in cells:
        cell = run_figure4_cell(
            deadline_ms / 1000.0, probability, lui, total_requests=requests, seed=seed
        )
        name = f"Figure 4 P_c={probability} LUI={lui:g}s d={deadline_ms}ms"
        rows[f"{name}: P(fail)"] = cell.timing_failure_probability
        rows[f"{name}: replicas selected"] = cell.avg_replicas_selected
    return rows


def a9_rows(seed: int) -> dict:
    from repro.experiments.ablations import deferral_model_study

    independent, correlated = deferral_model_study(seed=seed)
    return {
        "A9 Eq. 3 independent: P(fail)": independent.timing_failure_probability,
        "A9 Eq. 3 independent: replicas selected": independent.avg_replicas_selected,
        "A9 correlation-aware: P(fail)": correlated.timing_failure_probability,
        "A9 correlation-aware: replicas selected": correlated.avg_replicas_selected,
    }


def seeded_rows(seed: int) -> dict:
    from repro.core.staleness import RateMixtureStalenessModel
    from repro.experiments.ablations import lui_sweep
    from repro.experiments.validation import (
        run_hotspot_validation,
        run_staleness_validation,
    )

    shortest, longest = lui_sweep(luis=(1.0, 8.0), seed=seed)
    poisson = run_staleness_validation(duration=240.0, seed=seed)
    bursty = run_staleness_validation(duration=240.0, bursty=True, seed=seed)
    mixture = run_staleness_validation(
        duration=240.0, bursty=True, staleness_model=RateMixtureStalenessModel(),
        seed=seed,
    )
    hotspot = run_hotspot_validation(reads=300, seed=seed)
    return {
        "A1 LUI=1s: replicas selected": shortest.avg_replicas_selected,
        "A1 LUI=8s: replicas selected": longest.avg_replicas_selected,
        "A1 LUI=8s: deferred fraction": longest.deferred_fraction,
        "staleness Poisson Eq. 4: max abs error": max(abs(r.error) for r in poisson),
        "staleness bursty Eq. 4: total abs error": sum(abs(r.error) for r in bursty),
        "staleness bursty mixture: total abs error": sum(abs(r.error) for r in mixture),
        "hot spot ert order: imbalance": hotspot.with_ert_imbalance,
        "hot spot cdf-greedy: imbalance": hotspot.without_ert_imbalance,
    }


def _campaign_rates(name: str, r) -> dict:
    if name == "chaos":
        return {
            "reads resolved": _rate(r.reads_resolved, r.reads_issued),
            "late": _rate(r.timing_failures, r.reads_resolved),
            "updates acked": r.updates_acked,
            "retries per read": _rate(r.recovery.get("retries_sent", 0), r.reads_issued),
        }
    if name == "overload":
        return {
            "vip late": _rate(r.vip_timing_failures, r.vip_issued),
            "bulk late": _rate(r.bulk_timing_failures, r.bulk_issued),
            "vip p99 s": r.vip_p99,
        }
    if name == "gray":
        return {
            "late": _rate(r.timing_failures, r.reads_issued),
            "sla": r.sla_rate,
            "p99 s": r.p99,
        }
    return {"score": r.score, "satisfaction": r.satisfaction}


def campaign_rows(seed: int, campaigns=CAMPAIGNS) -> dict:
    import importlib

    from repro.experiments.campaign import run_suite

    rows = {}
    for name in campaigns:
        campaign = importlib.import_module(f"repro.experiments.{name}").CAMPAIGN
        results = run_suite(campaign, [seed], campaign.default[1])
        rows[f"{name} campaign: cells clean"] = float(
            not any(r.violations for r in results)
        )
        for claim in getattr(campaign, "claims", ()):  # a tree before claims has none
            treatment, baseline = (
                getattr(next(r for r in results if r.mode == mode), claim.field)
                for mode in (claim.treatment, claim.baseline)
            )
            rows[f"{name} campaign: {claim.treatment} - {claim.baseline}: "
                 f"{claim.field}"] = treatment - baseline
        for result in results:
            mode = f" [{result.mode}]" if campaign.modes else ""
            for rate, value in _campaign_rates(name, result).items():
                rows[f"{name} campaign{mode}: {rate}"] = value
    return rows


def ledger_rows(seed: int, workloads=LEDGER_WORKLOADS) -> dict:
    import accounting
    import cells

    rows = {}
    for name in workloads:
        latency = cells.BY_NAME[name].run(seed).outcome.read_latency
        for q in (0.5, 0.95):
            rows[f"ledger {name}: read p{q * 100:g} ms"] = accounting.quantile_ms(latency, q)
    return rows


#: ``(producer, seeds)`` per panel.
PANELS = {
    "full": (
        (figure4_rows, 10),
        (a9_rows, 24),
        (seeded_rows, 12),
        (campaign_rows, 10),
        (ledger_rows, 12),
    ),
    "small": (
        (functools.partial(
            figure4_rows, cells=((0.9, 4.0, 80), (0.5, 2.0, 160)), requests=400
        ), 4),
        (a9_rows, 6),
        (functools.partial(campaign_rows, campaigns=("chaos",)), 4),
        (functools.partial(ledger_rows, workloads=("paper_cell",)), 3),
    ),
}


def _correlated_deferral() -> None:
    """A9's Eq. 3 row made correlation-aware: every ``StateBasedSelection()``
    the ablations build takes ``correlated_deferral=True``."""
    from repro.core.selection import StateBasedSelection
    from repro.experiments import ablations

    ablations.StateBasedSelection = functools.partial(
        StateBasedSelection, correlated_deferral=True
    )


#: Known defects ``--change-mutant`` injects into the change side's worker.
MUTANTS = {"correlated-deferral": _correlated_deferral}


# ---------------------------------------------------------------------------
# Worker: one tree, one process
# ---------------------------------------------------------------------------
def work(root: Path, panel: str, seed: int, mutant: str | None) -> dict:
    """Every row of ``panel`` in the tree at ``root``: ``{row: [value per seed]}``."""
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "ledger")]
    import repro

    where = Path(repro.__file__).resolve()
    if root / "src" not in where.parents:
        sys.exit(f"equivalence: repro resolved to {where}, not under {root / 'src'}")
    if mutant:
        MUTANTS[mutant]()
    rows: dict = {}
    for producer, seeds in PANELS[panel]:
        for offset in range(seeds):
            for row, value in producer(seed + offset).items():
                rows.setdefault(row, []).append(float(value))
    return rows


# ---------------------------------------------------------------------------
# Judge
# ---------------------------------------------------------------------------
def student_t(a: list, b: list) -> tuple[float, float]:
    """Two-sided two-sample Student t test: ``(t, p)``.  With no spread on
    either side, equal means agree (p = 1) and unequal ones do not (p = 0)."""
    from scipy.stats import t as t_law

    a = [x for x in a if math.isfinite(x)]
    b = [x for x in b if math.isfinite(x)]
    if len(a) < 2 or len(b) < 2:
        return 0.0, float(sorted(a) == sorted(b))
    mean_a, mean_b = sum(a) / len(a), sum(b) / len(b)
    df = len(a) + len(b) - 2
    pooled = (
        sum((x - mean_a) ** 2 for x in a) + sum((x - mean_b) ** 2 for x in b)
    ) / df
    if pooled == 0.0:
        return (0.0, 1.0) if mean_a == mean_b else (math.copysign(math.inf, mean_b - mean_a), 0.0)
    t = (mean_b - mean_a) / math.sqrt(pooled * (1 / len(a) + 1 / len(b)))
    return t, float(2 * t_law.sf(abs(t), df))


def judge(parent: dict, change: dict) -> list[dict]:
    """One verdict per row of either side; a row only one side has disagrees."""
    from repro.stats.confidence import holm  # the gate's own tree (main)

    names = list(parent) + [name for name in change if name not in parent]
    tests = [
        student_t(parent[n], change[n]) if n in parent and n in change else (math.nan, 0.0)
        for n in names
    ]
    adjusted = holm([p for _, p in tests])
    return [
        {
            "row": name,
            "seeds": len(parent.get(name, change.get(name))),
            "parent": _mean(parent.get(name)),
            "change": _mean(change.get(name)),
            "t": t,
            "p": p,
            "holm_p": adj,
            "agrees": adj > ALPHA,
        }
        for name, (t, p), adj in zip(names, tests, adjusted)
    ]


def _mean(values) -> float:
    return sum(values) / len(values) if values else math.nan


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def _revision(root: Path) -> str:
    proc = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True,
    )
    return proc.stdout.strip() or "-"


def run_sides(args) -> tuple[dict, dict, dict]:
    """Both trees' rows and worker seconds, the two workers side by side."""
    sides = {
        "parent": (args.parent, args.seed, None),
        "change": (args.change, args.seed + args.change_seed_offset, args.change_mutant),
    }
    with tempfile.TemporaryDirectory() as tmp:
        procs = {}
        for side, (root, seed, mutant) in sides.items():
            command = [
                sys.executable, str(Path(__file__).resolve()), "--worker", str(root),
                "--panel", args.panel, "--seed", str(seed),
                "--out", str(Path(tmp) / f"{side}.json"),
            ]
            if mutant:
                command += ["--change-mutant", mutant]
            with open(Path(tmp) / f"{side}.log", "w") as log:
                procs[side] = subprocess.Popen(
                    command, cwd=root, stdout=log, stderr=subprocess.STDOUT
                )
        for side in [side for side, proc in procs.items() if proc.wait()]:
            log = (Path(tmp) / f"{side}.log").read_text()
            sys.exit(f"equivalence: the {side} worker failed\n{log[-3000:]}")
        out = {side: json.loads((Path(tmp) / f"{side}.json").read_text()) for side in sides}
    return out["parent"]["rows"], out["change"]["rows"], {
        side: out[side]["seconds"] for side in sides
    }


def report(args, verdicts: list[dict], walls: dict) -> str:
    failing = [v for v in verdicts if not v["agrees"]]
    seeds = f"{args.seed}..." + (
        f" (change side +{args.change_seed_offset})" if args.change_seed_offset else ""
    )
    lines = [
        "# Equivalence report",
        "",
        f"- parent: `{args.parent}` ({_revision(args.parent)}); "
        f"change: `{args.change}` ({_revision(args.change)})"
        + (f", mutant `{args.change_mutant}`" if args.change_mutant else ""),
        f"- panel: {args.panel}, {len(verdicts)} rows, seeds from {seeds}",
        "- test: two-sample Student t on each row's per-seed values; "
        f"Holm step-down at family-wise α = {ALPHA}",
        f"- worker seconds: parent {walls['parent']:.0f}, change {walls['change']:.0f}, "
        f"side by side on a {os.cpu_count()}-core host",
        f"- verdict: **{'FAIL' if failing else 'PASS'}** "
        f"({len(failing)} of {len(verdicts)} rows disagree)",
        "",
        "| row | seeds | parent | change | t | p | Holm p | agrees |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for v in sorted(verdicts, key=lambda v: v["agrees"]):
        lines.append(
            f"| {v['row']} | {v['seeds']} | {v['parent']:.6g} | {v['change']:.6g} | "
            f"{v['t']:.3g} | {v['p']:.3g} | {v['holm_p']:.3g} | "
            f"{'yes' if v['agrees'] else '**no**'} |"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="the tree before the change")
    parser.add_argument("--change", type=Path, help="the tree with the change")
    parser.add_argument("--panel", choices=sorted(PANELS), default="full")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="first seed of every row (default %(default)s)")
    parser.add_argument("--report", type=Path, default=Path("equivalence-report.md"),
                        help="Markdown report to write (default %(default)s)")
    parser.add_argument("--change-seed-offset", type=int, default=0, metavar="K",
                        help="seed the change side K further on (a pure re-seed)")
    parser.add_argument("--change-mutant", choices=sorted(MUTANTS),
                        help="inject a known defect into the change side")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        started = time.perf_counter()
        rows = work(args.worker.resolve(), args.panel, args.seed, args.change_mutant)
        seconds = time.perf_counter() - started
        args.out.write_text(json.dumps({"rows": rows, "seconds": seconds}))
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    args.parent, args.change = args.parent.resolve(), args.change.resolve()
    for root in (args.parent, args.change):
        if not (root / "src" / "repro").is_dir():
            parser.error(f"{root} holds no src/repro")
    parent, change, walls = run_sides(args)
    verdicts = judge(parent, change)
    text = report(args, verdicts, walls)
    args.report.write_text(text)
    failing = [v for v in verdicts if not v["agrees"]]
    for v in failing:
        print(f"disagrees: {v['row']}: t = {v['t']:.3g}, Holm p = {v['holm_p']:.3g}")
    print(f"{'FAIL' if failing else 'PASS'}: {len(failing)} of {len(verdicts)} rows "
          f"disagree; report in {args.report}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
