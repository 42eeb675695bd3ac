"""Plain-text table/series formatting and JSON persistence for results."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Render an aligned text table (the benches print these)."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


RECOVERY_COUNTERS: tuple[tuple[str, str], ...] = (
    ("retries_sent", "reads re-dispatched after a quiet checkpoint"),
    ("hedges_sent", "reads duplicated to the runner-up at issue time"),
    ("failover_redispatches", "re-dispatches triggered by replica eviction"),
    ("retry_resolved", "first delivered reply came from a retry"),
    ("hedge_resolved", "first delivered reply came from the hedge"),
    ("reads_salvaged", "late value delivered after a timing failure"),
    ("state_transfers_started", "primary rejoins that requested a snapshot"),
    ("state_transfers_completed", "snapshots installed by rejoining primaries"),
    ("state_transfers_served", "snapshots shipped by donor primaries"),
    ("overload_replies", "reads bounced by a shedding replica"),
    ("reads_shed", "reads the degradation ladder refused to dispatch"),
    ("degradation_steps_down", "ladder transitions toward weaker consistency"),
    ("degradation_steps_up", "hysteretic recoveries toward nominal"),
    ("detector_ejections", "suspected replicas ejected from read selection"),
    ("detector_hedges", "hedges triggered by a suspect selected replica"),
    ("detector_probes", "probe copies of reads sent to ejected replicas"),
)


def format_recovery_stats(stats: dict, title: str = "fault recovery") -> str:
    """Render the retry/hedge/failover/state-transfer counter table.

    ``stats`` maps counter name to value — typically the union of
    :meth:`repro.core.client.ClientHandler.recovery_stats` and the
    state-transfer counters of the replica handlers.  Known counters are
    printed in a stable order with descriptions; unknown keys follow.
    """
    known = {name for name, _ in RECOVERY_COUNTERS}
    rows = [
        [name, stats.get(name, 0), description]
        for name, description in RECOVERY_COUNTERS
        if name in stats
    ]
    rows.extend(
        [name, value, ""] for name, value in sorted(stats.items()) if name not in known
    )
    return format_table(["counter", "count", "meaning"], rows, title=title)


def render_report(
    metrics: dict | None = None,
    recovery: dict | None = None,
    calibration: Any = None,
    title: str = "telemetry report",
) -> str:
    """One combined plain-text report: metrics, recovery, calibration.

    ``metrics`` is a :meth:`repro.obs.MetricsRegistry.snapshot` dict;
    counters and gauges go in one table, histograms get a count/mean/
    quantile summary table.  ``recovery`` feeds
    :func:`format_recovery_stats`.  ``calibration`` is either a
    :class:`repro.obs.CalibrationTracker` or its ``to_dict()`` payload;
    each strategy gets a reliability table (per-bucket predicted vs.
    observed with Wilson CIs) plus its Brier score.
    """
    from repro.obs.calibration import CalibrationTracker
    from repro.obs.export import summarize_histogram

    blocks = [title, "=" * len(title)] if title else []
    if metrics:
        scalar_rows = []
        histogram_rows = []
        for series in sorted(metrics):
            entry = metrics[series]
            if entry["type"] == "histogram":
                summary = summarize_histogram(entry)
                histogram_rows.append(
                    [
                        series,
                        summary["count"],
                        summary["mean"],
                        summary["p50"],
                        summary["p95"],
                        summary["p99"],
                    ]
                )
            else:
                scalar_rows.append([series, entry["type"], entry["value"]])
        if scalar_rows:
            blocks.append(
                format_table(
                    ["series", "type", "value"], scalar_rows, title="metrics"
                )
            )
        if histogram_rows:
            blocks.append(
                format_table(
                    ["series", "count", "mean", "p50", "p95", "p99"],
                    histogram_rows,
                    title="histograms",
                )
            )
    if recovery:
        blocks.append(format_recovery_stats(recovery))
    if calibration is not None:
        tracker = (
            calibration
            if isinstance(calibration, CalibrationTracker)
            else CalibrationTracker.from_dict(calibration)
        )
        for strategy in tracker.strategies():
            rows = [
                [
                    f"[{bucket.low:.2f}, {bucket.high:.2f})",
                    bucket.count,
                    bucket.mean_predicted,
                    bucket.observed,
                    f"[{bucket.ci_low:.3f}, {bucket.ci_high:.3f}]",
                    "yes" if bucket.consistent else "NO",
                ]
                for bucket in tracker.reliability(strategy)
            ]
            heading = (
                f"calibration — {strategy} "
                f"(n={tracker.observations(strategy)}, "
                f"Brier={tracker.brier_score(strategy):.4f})"
            )
            blocks.append(
                format_table(
                    ["predicted bucket", "n", "mean P_c(d)", "observed",
                     "95% CI", "within CI"],
                    rows,
                    title=heading,
                )
            )
    return "\n\n".join(blocks)


def format_series(name: str, xs: Sequence[float], ys: Sequence[float]) -> str:
    """One figure series as ``name: (x, y) ...`` for eyeballing shapes."""
    pairs = " ".join(f"({x:g}, {y:.4g})" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def _jsonable(value: Any) -> Any:
    """Recursively convert dataclasses/tuples/dict keys for JSON."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{
                field.name: _jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def run_metadata(
    experiment: str,
    seed: Any = None,
    config: Any = None,
    **extra: Any,
) -> dict:
    """The unified ``meta`` record every experiment JSONL artifact leads with.

    Stamps what a later reader needs to reproduce or compare the run: the
    root seed, a short hash of the run configuration (plus the config
    itself), the repro version, and the cores the run could actually use.
    ``extra`` keys ride along verbatim (and may override the stamps).
    """
    from repro import __version__
    from repro.experiments.runner import available_cpus

    meta: dict = {
        "event": "meta",
        "experiment": experiment,
        "repro_version": __version__,
        "usable_cores": available_cpus(),
    }
    if seed is not None:
        meta["root_seed"] = seed
    if config is not None:
        jsonable = _jsonable(config)
        canonical = json.dumps(jsonable, sort_keys=True, default=str)
        meta["config"] = jsonable
        meta["config_hash"] = hashlib.sha256(
            canonical.encode("utf-8")
        ).hexdigest()[:16]
    meta.update(extra)
    return meta


def write_experiment_artifact(
    path: str | Path,
    experiment: str,
    records: Iterable[dict],
    seed: Any = None,
    config: Any = None,
    **extra: Any,
) -> Path:
    """Write a JSONL artifact led by the unified :func:`run_metadata` line.

    The one writer behind ``--metrics-out`` across figure3, figure4,
    metrics, chaos, overload, gray, adaptive, and scale, so every artifact
    opens with the same traceability stamps instead of each experiment
    rolling its own meta record.
    """
    from repro.obs.export import write_jsonl

    head = run_metadata(experiment, seed=seed, config=config, **extra)
    return write_jsonl(path, [head, *records])


def save_results(path: str | Path, payload: Any, meta: dict | None = None) -> Path:
    """Persist experiment results (dataclasses welcome) as JSON.

    The file carries the payload under ``results`` and optional run
    metadata (seed, parameters, versions) under ``meta`` so regenerated
    figures are traceable.
    """
    path = Path(path)
    document = {"meta": meta or {}, "results": _jsonable(payload)}
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    return path


def load_results(path: str | Path) -> dict:
    """Load a document written by :func:`save_results`."""
    return json.loads(Path(path).read_text())
