"""Exporters for metric snapshots: JSONL event streams and Prometheus text.

Both formats work on the plain-dict snapshots produced by
:meth:`repro.obs.metrics.MetricsRegistry.snapshot`, so they can run in the
parent process on merged worker data without ever seeing a live registry.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from repro.obs.metrics import bucket_quantile

__all__ = [
    "prometheus_text",
    "prometheus_timeseries_text",
    "metrics_event",
    "write_jsonl",
    "summarize_histogram",
]

_SERIES_RE = re.compile(r"^(?P<name>[^{]+)(\{(?P<labels>.*)\})?$")


def _split_series(series: str) -> tuple[str, str]:
    """Split ``name{k="v"}`` into (name, label part incl. braces or '')."""
    match = _SERIES_RE.match(series)
    if match is None:  # defensive; registry only emits well-formed series
        return series, ""
    labels = match.group("labels")
    return match.group("name"), (f"{{{labels}}}" if labels else "")


def _merge_labels(label_part: str, extra: str) -> str:
    """Splice ``extra`` (e.g. 'le="0.1"') into an existing label part."""
    if not label_part:
        return f"{{{extra}}}"
    return label_part[:-1] + "," + extra + "}"


def prometheus_text(snapshot: Dict[str, dict]) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Histograms expand to cumulative ``_bucket`` samples plus ``_sum`` and
    ``_count``, matching what a scrape endpoint would serve.
    """
    lines: list[str] = []
    seen_types: set[str] = set()
    for series in sorted(snapshot):
        entry = snapshot[series]
        name, label_part = _split_series(series)
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {entry['type']}")
        if entry["type"] == "histogram":
            cumulative = 0
            for boundary, count in zip(entry["boundaries"], entry["counts"]):
                cumulative += count
                le = _merge_labels(label_part, f'le="{boundary:g}"')
                lines.append(f"{name}_bucket{le} {cumulative}")
            le = _merge_labels(label_part, 'le="+Inf"')
            lines.append(f"{name}_bucket{le} {entry['count']}")
            lines.append(f"{name}_sum{label_part} {entry['sum']:g}")
            lines.append(f"{name}_count{label_part} {entry['count']}")
        else:
            value = entry["value"]
            text = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"{name}{label_part} {text}")
    return "\n".join(lines) + "\n"


def prometheus_timeseries_text(timeline, window: int = 1) -> str:
    """Render a :class:`repro.obs.timeseries.Timeline`'s most recent state
    as Prometheus gauges.

    A scrape endpoint can only serve *current* values, so each series
    collapses to its last ``window`` ticks: counters become ``<name>_rate``
    (per-second over the window), gauges become ``<name>_last``, and
    histograms become ``<name>_p50``/``_p95``/``_p99`` plus ``<name>_rate``
    (observations per second).  Labels are preserved verbatim.
    """
    if timeline is None or timeline.length == 0:
        return ""
    window = max(1, min(window, timeline.length))
    lo = timeline.length - window
    hi = timeline.length
    span = window * timeline.interval
    lines: list[str] = []
    seen_types: set[str] = set()

    def type_line(name: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} gauge")

    for series in sorted(timeline.series):
        entry = timeline.series[series]
        name, label_part = _split_series(series)
        if entry["type"] == "counter":
            rate = sum(entry["deltas"][lo:hi]) / span
            type_line(f"{name}_rate")
            lines.append(f"{name}_rate{label_part} {rate:g}")
        elif entry["type"] == "gauge":
            present = [
                v for v in entry["values"][lo:hi] if v is not None
            ]
            if not present:
                continue
            type_line(f"{name}_last")
            lines.append(f"{name}_last{label_part} {present[-1]:g}")
        else:  # histogram
            for q, suffix in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                ticks = timeline.quantiles(series, q)[lo:hi]
                quantile = ticks[-1] if ticks else 0.0
                type_line(f"{name}_{suffix}")
                lines.append(f"{name}_{suffix}{label_part} {quantile:g}")
            rate = sum(entry["totals"][lo:hi]) / span
            type_line(f"{name}_rate")
            lines.append(f"{name}_rate{label_part} {rate:g}")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def metrics_event(
    snapshot: Dict[str, dict],
    kind: str = "snapshot",
    time: Optional[float] = None,
    **extra,
) -> dict:
    """Wrap a snapshot as one JSONL event record."""
    event: dict = {"event": kind}
    if time is not None:
        event["time"] = time
    event.update(extra)
    event["metrics"] = snapshot
    return event


def write_jsonl(path: Union[str, Path], records: Iterable[dict]) -> Path:
    """Write records one-JSON-object-per-line; returns the resolved path."""
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, default=str))
            handle.write("\n")
    return path


def summarize_histogram(entry: dict) -> dict:
    """Compact (count, mean, p50, p95, p99) view of one histogram entry."""
    count = entry["count"]
    if not count:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    summary = {"count": count, "mean": entry["sum"] / count}
    for q, key in ((0.50, "p50"), (0.95, "p95"), (0.99, "p99")):
        summary[key] = bucket_quantile(
            entry["boundaries"], entry["counts"], count, q
        )
    return summary
