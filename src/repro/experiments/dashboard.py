"""``repro dash``: terminal + HTML dashboards over timeline artifacts.

Reads the JSONL artifacts the experiments write with ``--metrics-out``
(any record with ``"event": "timeline"`` carries a
:meth:`Timeline.to_dict` payload), evaluates the SLOs, and renders:

* per-series unicode **sparklines** — counter rates, gauge values, and
  histogram p95s over simulated time;
* the **SLO compliance table** — objective vs. observed, error-budget
  consumption, current fast/slow burn rates, and any burn alerts;
* the **staleness attribution** split (lazy-publisher vs. queue vs.
  network, DESIGN.md §15);
* the **closed-loop controller panel** — relax-index / lazy-interval /
  guardrail-state sparklines and the rollback ledger, from any
  ``"event": "controller"`` decision logs in the artifact (the
  ``repro adaptive`` campaign writes them);
* with ``--html PATH``, a self-contained HTML report (inline SVG, no
  external assets) of the same content;
* with ``--watch SECONDS``, a live terminal view that re-reads the
  artifact at that wall-clock cadence — point it at the file a running
  campaign is rewriting.

Run: ``repro dash out/overload.jsonl`` or
``python -m repro.experiments.dashboard --help``.
"""

from __future__ import annotations

import argparse
import html as html_escape
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.report import format_table
from repro.obs.slo import (
    SloEngine,
    SloReport,
    SloSpec,
    attribution_summary,
    parse_series,
)
from repro.obs.timeseries import Timeline

SPARK_CHARS = "▁▂▃▄▅▆▇█"


# ---------------------------------------------------------------------------
# Sparklines
# ---------------------------------------------------------------------------
def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render values as a fixed-width unicode sparkline.

    Longer series are bucketed (mean per bucket) down to ``width``; the
    y-axis is normalized to the series max (an all-zero series renders as
    a flat baseline).
    """
    values = [0.0 if v is None else float(v) for v in values]
    if not values:
        return ""
    if len(values) > width:
        bucketed = []
        for b in range(width):
            lo = b * len(values) // width
            hi = max(lo + 1, (b + 1) * len(values) // width)
            chunk = values[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        values = bucketed
    top = max(values)
    if top <= 0:
        return SPARK_CHARS[0] * len(values)
    steps = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[min(steps, int(round(v / top * steps)))] for v in values
    )


def _series_rows(
    timeline: Timeline, top: int
) -> List[Tuple[str, str, float, List[float]]]:
    """(label, unit, headline value, per-tick values) per series, most
    active first."""
    rows: List[Tuple[str, str, float, List[float]]] = []
    for series in sorted(timeline.series):
        entry = timeline.series[series]
        if entry["type"] == "counter":
            rates = timeline.rate(series)
            total = float(sum(entry["deltas"]))
            if total:
                rows.append((series, "/s", total, rates))
        elif entry["type"] == "gauge":
            values = [0.0 if v is None else v for v in entry["values"]]
            if any(values):
                rows.append((series, "", max(values), values))
        else:
            p95 = timeline.quantiles(series, 0.95)
            total = float(sum(entry["totals"]))
            if total:
                rows.append((f"{series} p95", "s", total, p95))
    rows.sort(key=lambda r: -r[2])
    return rows[:top]


def render_timeline(
    timeline: Timeline, width: int = 60, top: int = 16
) -> str:
    """Sparkline block for the most active series of a timeline."""
    if timeline.length == 0:
        return "(empty timeline)"
    times = timeline.times()
    header = (
        f"timeline: {timeline.length} ticks x {timeline.interval:g}s "
        f"[t={times[0] - timeline.interval:g}s .. {times[-1]:g}s]"
    )
    rows = _series_rows(timeline, top)
    if not rows:
        return header + "\n(no active series)"
    label_width = max(len(label) for label, _, _, _ in rows)
    lines = [header]
    for label, unit, headline, values in rows:
        last = values[-1] if values else 0.0
        lines.append(
            f"{label.ljust(label_width)}  {sparkline(values, width)}  "
            f"last={last:.4g}{unit}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SLOs
# ---------------------------------------------------------------------------
def default_slos(
    timeline: Timeline,
    objective: float = 0.9,
    staleness_bound: Optional[float] = None,
) -> List[SloSpec]:
    """Sensible specs for an arbitrary artifact: one timeliness SLO per
    client observed in the timeline, plus one staleness SLO over all
    replicas when a bound is given."""
    clients = set()
    have_staleness = False
    for series in timeline.series:
        name, labels = parse_series(series)
        if name == "client_reads_judged" and "client" in labels:
            clients.add(labels["client"])
        elif name == "replica_staleness_wait_seconds":
            have_staleness = True
    specs = [
        SloSpec(
            name=f"timeliness:{client}", objective=objective, client=client
        )
        for client in sorted(clients)
    ]
    if have_staleness and staleness_bound is not None:
        specs.append(
            SloSpec(
                name=f"staleness<={staleness_bound:g}s",
                objective=objective,
                kind="staleness",
                staleness_bound=staleness_bound,
            )
        )
    return specs


def _latest(r: SloReport) -> Tuple[float, float, float, float]:
    """The report's current (compliance, budget consumed, fast burn, slow
    burn), with the no-data values 1, 0, 0, 0."""
    return (
        r.compliance[-1] if r.compliance else 1.0,
        r.budget_consumed[-1] if r.budget_consumed else 0.0,
        r.fast_burn[-1] if r.fast_burn else 0.0,
        r.slow_burn[-1] if r.slow_burn else 0.0,
    )


def render_slo_table(reports: Dict[str, SloReport]) -> str:
    """Compliance / budget / burn table, one row per SLO."""
    if not reports:
        return "(no SLOs evaluated)"
    rows = []
    for name in sorted(reports):
        r = reports[name]
        compliance, consumed, fast, slow = _latest(r)
        pages = sum(1 for a in r.alerts if a.severity == "page")
        tickets = sum(1 for a in r.alerts if a.severity == "ticket")
        first = r.first_alert("page")
        rows.append(
            [
                name,
                f"{r.spec.objective:.3f}",
                f"{compliance:.4f}",
                f"{consumed:.1%}",
                f"{fast:.1f}",
                f"{slow:.1f}",
                f"{pages}/{tickets}",
                "-" if first is None else f"{first.time:.2f}s",
                "yes" if r.met() else "NO",
            ]
        )
    return format_table(
        ["slo", "target", "observed", "budget used", "fast burn",
         "slow burn", "page/ticket", "first page", "met"],
        rows,
        title="SLO compliance",
    )


def render_attribution(timeline: Timeline) -> str:
    """Staleness attribution split (empty string when nothing observed)."""
    summary = attribution_summary(timeline)
    if not summary["reads"]:
        return ""
    rows = [
        [name, f"{summary['components'][name]:.4f}",
         f"{summary['fractions'][name]:.1%}"]
        for name in summary["components"]
    ]
    table = format_table(
        ["component", "seconds", "share"],
        rows,
        title=(
            f"staleness attribution — {summary['observed_seconds']:.4f}s "
            f"over {summary['reads']} reads"
        ),
    )
    return table


def render_dashboard(
    timeline: Timeline,
    reports: Optional[Dict[str, SloReport]] = None,
    title: str = "repro dash",
    width: int = 60,
    top: int = 16,
) -> str:
    """The full terminal dashboard as one string."""
    blocks = [title, "=" * len(title)]
    blocks.append(render_timeline(timeline, width=width, top=top))
    if reports is not None:
        blocks.append(render_slo_table(reports))
        for name in sorted(reports):
            r = reports[name]
            if r.fast_burn:
                blocks.append(
                    f"burn  {name}: {sparkline(r.fast_burn, width)}  "
                    f"fast={r.fast_burn[-1]:.1f} slow={r.slow_burn[-1]:.1f}"
                )
    attribution = render_attribution(timeline)
    if attribution:
        blocks.append(attribution)
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Artifact loading
# ---------------------------------------------------------------------------
def load_artifact(path: str | Path) -> Tuple[dict, List[dict], List[dict]]:
    """(meta record, timeline records, controller records) from a JSONL
    artifact, in one read, so every panel of a render comes from the same
    version of a file a running campaign is rewriting."""
    meta: dict = {}
    timelines: List[dict] = []
    controllers: List[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            event = record.get("event")
            if event == "meta" and not meta:
                meta = record
            elif event == "timeline":
                timelines.append(record)
            elif event == "controller":
                controllers.append(record)
    return meta, timelines, controllers


#: State names at their escalation level, for the controller state strip.
_CONTROLLER_STATE_LEVELS = {
    "conservative": 0.0,
    "measure": 1.0,
    "relax": 2.0,
    "rollback": 3.0,
}


def _controller_series(records: List[dict]):
    """Per decision log with decisions: (record, decisions, relax-index
    series, T_L series, decisions that rolled back)."""
    for record in records:
        decisions = record.get("decisions") or []
        if not decisions:
            continue
        rollbacks = [
            d for d in decisions
            if any(str(a).startswith("rollback:") for a in d.get("actions", ()))
        ]
        yield (
            record,
            decisions,
            [float(d.get("relax_index", 0)) for d in decisions],
            [float(d.get("t_l") or 0.0) for d in decisions],
            rollbacks,
        )


def render_controller(records: List[dict], width: int = 60) -> str:
    """The closed-loop controller panel: per decision log, sparklines of
    the relax index, the actuated lazy interval, and the guardrail state
    (conservative→measure→relax→rollback), plus the rollback ledger."""
    blocks: List[str] = []
    for record, decisions, index, t_l, rollbacks in _controller_series(records):
        state = [
            _CONTROLLER_STATE_LEVELS.get(str(d.get("state")), 0.0)
            for d in decisions
        ]
        relaxes = sum(
            1
            for d in decisions
            for a in d.get("actions", ())
            if str(a).startswith("relax:")
        )
        header = (
            f"controller — mode={record.get('mode', '?')} "
            f"seed={record.get('seed', '?')}: {len(decisions)} epochs, "
            f"{relaxes} relaxes, {len(rollbacks)} rollbacks"
        )
        lines = [
            header,
            f"  index {sparkline(index, width)}  last={index[-1]:g}",
            f"  T_L   {sparkline(t_l, width)}  last={t_l[-1]:.3g}s",
            f"  state {sparkline(state, width)}  "
            "(0=conservative 1=measure 2=relax 3=rollback)",
        ]
        for d in rollbacks[:6]:
            acts = [a for a in d.get("actions", ()) if "rollback" in str(a)]
            lines.append(
                f"  t={d.get('time', 0):.2f} {'; '.join(map(str, acts))}"
            )
        if len(rollbacks) > 6:
            lines.append(f"  ... {len(rollbacks) - 6} more rollbacks")
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    title = "closed-loop controller"
    return "\n\n".join([f"{title}\n{'-' * len(title)}"] + blocks)


def select_timeline(
    records: List[dict], select: Optional[Dict[str, str]] = None
) -> Optional[Timeline]:
    """Pick one timeline: apply ``select`` filters (record-field equality,
    compared as strings), then prefer the merged record, else the first."""
    if select:
        records = [
            r
            for r in records
            if all(str(r.get(k)) == v for k, v in select.items())
        ]
    if not records:
        return None
    merged = [r for r in records if r.get("kind") == "merged"]
    chosen = merged[0] if merged else records[0]
    return Timeline.from_dict(chosen["timeline"])


# ---------------------------------------------------------------------------
# HTML export
# ---------------------------------------------------------------------------
def _svg_polyline(
    values: Sequence[float], width: int = 560, height: int = 48
) -> str:
    values = [0.0 if v is None else float(v) for v in values]
    if not values:
        return ""
    top = max(values) or 1.0
    n = len(values)
    points = " ".join(
        f"{(i * width / max(1, n - 1)):.1f},"
        f"{(height - 2 - v / top * (height - 6)):.1f}"
        for i, v in enumerate(values)
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline fill="none" stroke="#2b6cb0" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )


def export_html(
    path: str | Path,
    timeline: Timeline,
    reports: Optional[Dict[str, SloReport]] = None,
    title: str = "repro dash",
    top: int = 16,
    controllers: Optional[List[dict]] = None,
) -> Path:
    """Write a self-contained HTML report (inline SVG, no assets)."""
    esc = html_escape.escape
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{esc(title)}</title>",
        "<style>body{font:14px/1.5 system-ui,sans-serif;margin:2em;"
        "max-width:880px}table{border-collapse:collapse}"
        "td,th{border:1px solid #ccc;padding:4px 8px;text-align:right}"
        "th{background:#f5f5f5}td:first-child,th:first-child"
        "{text-align:left}code{background:#f5f5f5;padding:1px 4px}"
        ".alert{color:#c53030;font-weight:bold}</style></head><body>",
        f"<h1>{esc(title)}</h1>",
    ]
    times = timeline.times()
    if times:
        parts.append(
            f"<p>{timeline.length} ticks &times; {timeline.interval:g}s "
            f"of simulated time (through t={times[-1]:g}s)</p>"
        )
    parts.append("<h2>Series</h2>")
    for label, unit, _, values in _series_rows(timeline, top):
        last = values[-1] if values else 0.0
        parts.append(
            f"<p><code>{esc(label)}</code> last={last:.4g}{esc(unit)}<br>"
            f"{_svg_polyline(values)}</p>"
        )
    if reports:
        parts.append("<h2>SLOs</h2><table><tr><th>slo</th><th>target</th>"
                     "<th>observed</th><th>budget used</th><th>fast burn</th>"
                     "<th>slow burn</th><th>alerts</th><th>met</th></tr>")
        for name in sorted(reports):
            r = reports[name]
            compliance, consumed, fast, slow = _latest(r)
            met = "yes" if r.met() else "<span class='alert'>NO</span>"
            parts.append(
                f"<tr><td>{esc(name)}</td><td>{r.spec.objective:.3f}</td>"
                f"<td>{compliance:.4f}</td><td>{consumed:.1%}</td>"
                f"<td>{fast:.1f}</td><td>{slow:.1f}</td>"
                f"<td>{len(r.alerts)}</td><td>{met}</td></tr>"
            )
        parts.append("</table>")
        for name in sorted(reports):
            r = reports[name]
            if r.fast_burn and max(r.fast_burn) > 0:
                parts.append(
                    f"<p>burn <code>{esc(name)}</code><br>"
                    f"{_svg_polyline(r.fast_burn)}</p>"
                )
    summary = attribution_summary(timeline)
    if summary["reads"]:
        parts.append(
            "<h2>Staleness attribution</h2><table>"
            "<tr><th>component</th><th>seconds</th><th>share</th></tr>"
        )
        for name, seconds in summary["components"].items():
            parts.append(
                f"<tr><td>{esc(name)}</td><td>{seconds:.4f}</td>"
                f"<td>{summary['fractions'][name]:.1%}</td></tr>"
            )
        parts.append("</table>")
    if controllers:
        parts.append("<h2>Closed-loop controller</h2>")
        for record, decisions, index, t_l, rollbacks in _controller_series(
            controllers
        ):
            parts.append(
                f"<p>mode=<code>{esc(str(record.get('mode', '?')))}</code> "
                f"seed=<code>{esc(str(record.get('seed', '?')))}</code> — "
                f"{len(decisions)} epochs, {len(rollbacks)} rollbacks<br>"
                f"relax index {_svg_polyline(index)}<br>"
                f"T_L {_svg_polyline(t_l)}</p>"
            )
    parts.append("</body></html>")
    path = Path(path)
    path.write_text("\n".join(parts), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog=prog, description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "input", help="JSONL artifact with timeline records "
        "(--metrics-out output)"
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="pick the timeline record matching this field "
        "(e.g. mode=shed); repeatable",
    )
    parser.add_argument(
        "--objective", type=float, default=0.9,
        help="objective for the auto-derived SLOs (default 0.9)",
    )
    parser.add_argument(
        "--staleness-bound", type=float, default=None, metavar="SECONDS",
        help="also evaluate a staleness SLO at this bound",
    )
    parser.add_argument("--width", type=int, default=60)
    parser.add_argument(
        "--top", type=int, default=16, help="series rows to show"
    )
    parser.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-read the artifact at this wall-clock cadence",
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="stop --watch after this many renders (default: run forever)",
    )
    parser.add_argument(
        "--html", metavar="PATH", help="write a self-contained HTML report"
    )
    args = parser.parse_args(argv)

    select: Dict[str, str] = {}
    for item in args.select:
        if "=" not in item:
            parser.error(f"--select needs KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        select[key] = value

    def render_once() -> Optional[str]:
        meta, records, controllers = load_artifact(args.input)
        timeline = select_timeline(records, select or None)
        if timeline is None:
            return None
        specs = default_slos(
            timeline,
            objective=args.objective,
            staleness_bound=args.staleness_bound,
        )
        reports = SloEngine(specs).evaluate(timeline) if specs else None
        experiment = meta.get("experiment", "?")
        title = f"repro dash — {experiment} ({args.input})"
        text = render_dashboard(
            timeline, reports, title=title, width=args.width, top=args.top
        )
        panel = render_controller(controllers, width=args.width)
        if panel:
            text = f"{text}\n\n{panel}"
        if args.html:
            export_html(
                args.html, timeline, reports, title=title, top=args.top,
                controllers=controllers,
            )
        return text

    if args.watch is None:
        text = render_once()
        if text is None:
            print(
                f"no timeline records in {args.input} "
                f"(matching {select})" if select
                else f"no timeline records in {args.input}",
                file=sys.stderr,
            )
            return 1
        print(text)
        if args.html:
            print(f"\nhtml report written to {args.html}")
        return 0

    renders = 0
    try:
        while args.iterations is None or renders < args.iterations:
            text = render_once()
            # ANSI clear + home so the view repaints in place.
            sys.stdout.write("\x1b[2J\x1b[H")
            if text is None:
                print(f"waiting for timeline records in {args.input} ...")
            else:
                print(text)
            sys.stdout.flush()
            renders += 1
            if args.iterations is not None and renders >= args.iterations:
                break
            time.sleep(args.watch)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
