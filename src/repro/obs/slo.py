"""Declarative SLOs over timelines: compliance, burn rates, attribution.

The closed-loop controller (:mod:`repro.core.controller`, OptCon-style
SLA-aware tuning) reads three continuous sensors, and this module
computes all of them from the :class:`~repro.obs.timeseries.Timeline` a
recorder produces:

* **Rolling compliance** — per :class:`SloSpec`, the fraction of good
  events so far against the declared objective (timeliness ``P_c(d)`` or a
  staleness-wait bound);
* **Error-budget burn** — Google-SRE-style multi-window burn rates: a
  *fast* (paging) and *slow* (ticketing) window each compare the recent
  bad-event fraction against the budget ``1 − objective``; an alert fires
  when both the window and its short confirmation window (1/12 of the
  window, the SRE workbook's reset guard) exceed the threshold;
* **Staleness attribution** — the per-read decomposition the replicas
  record (lazy-publisher lag vs. commit-queue wait vs. network delay,
  see DESIGN.md §15) aggregated into component seconds and fractions.

:meth:`SloEngine.signals` is the API the controller reads every epoch:
one flat dict per spec with documented keys, computed from whatever
timeline prefix exists at call time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.timeseries import Timeline

__all__ = [
    "SloSpec",
    "SloReport",
    "BurnAlert",
    "SloEngine",
    "attribution_summary",
    "parse_series",
    "ATTRIBUTION_COMPONENTS",
]

#: Component labels of the per-read staleness decomposition (the replicas
#: guarantee the components sum to the observed staleness wait per read).
ATTRIBUTION_COMPONENTS = ("lazy_publisher", "queue", "network")

_LABEL_RE = re.compile(r'(\w+)="([^"]*)"')
_SERIES_RE = re.compile(r"^(?P<name>[^{]+)(\{(?P<labels>.*)\})?$")


def parse_series(series: str) -> Tuple[str, Dict[str, str]]:
    """Split ``name{k="v",...}`` into ``(name, {k: v})``."""
    match = _SERIES_RE.match(series)
    if match is None:  # defensive; the registry emits well-formed names
        return series, {}
    labels = match.group("labels")
    if not labels:
        return match.group("name"), {}
    return match.group("name"), dict(_LABEL_RE.findall(labels))


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over a (class, priority, region) selector.

    ``kind`` picks the signal:

    * ``"timeliness"`` — good/bad from the ``client_reads_judged`` /
      ``client_timing_failures`` counters (the paper's ``P_c(d)``);
    * ``"staleness"`` — good/bad from the ``replica_staleness_wait_seconds``
      histogram, where a read is *bad* when its staleness wait exceeded
      ``staleness_bound`` seconds.

    The selector labels (``client``/``priority``/``region``) must be a
    subset of a series' labels for it to count toward this spec; ``None``
    matches everything, so one spec can cover a whole class of clients.
    """

    name: str
    objective: float  # target good fraction in (0, 1)
    kind: str = "timeliness"
    client: Optional[str] = None
    priority: Optional[str] = None
    region: Optional[str] = None
    staleness_bound: Optional[float] = None  # seconds (kind="staleness")
    fast_window: float = 1.0  # seconds; the paging window
    slow_window: float = 6.0  # seconds; the ticketing window
    fast_burn: float = 14.0  # burn-rate threshold for the fast window
    slow_burn: float = 6.0  # burn-rate threshold for the slow window

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be strictly between 0 and 1")
        if self.kind not in ("timeliness", "staleness"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "staleness" and self.staleness_bound is None:
            raise ValueError("staleness SLOs need a staleness_bound")

    @property
    def budget(self) -> float:
        """The error budget: allowed bad fraction."""
        return 1.0 - self.objective

    def selector(self) -> Dict[str, str]:
        out = {}
        for key in ("client", "priority", "region"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True)
class BurnAlert:
    """A burn-rate alert's rising edge."""

    time: float  # simulated seconds (tick-end timestamp)
    tick: int  # absolute tick index
    severity: str  # "page" (fast window) | "ticket" (slow window)
    burn: float  # the offending window's burn rate at the edge


@dataclass
class SloReport:
    """Everything :meth:`SloEngine.evaluate` derives for one spec."""

    spec: SloSpec
    times: List[float] = field(default_factory=list)
    good: List[float] = field(default_factory=list)  # per-tick good events
    bad: List[float] = field(default_factory=list)  # per-tick bad events
    compliance: List[float] = field(default_factory=list)  # cumulative
    budget_consumed: List[float] = field(default_factory=list)  # cumulative
    fast_burn: List[float] = field(default_factory=list)  # per tick
    slow_burn: List[float] = field(default_factory=list)  # per tick
    alert_active: List[bool] = field(default_factory=list)  # page-level
    alerts: List[BurnAlert] = field(default_factory=list)

    def met(self) -> bool:
        """Did the run finish within its error budget?"""
        if not self.compliance:
            return True
        return self.compliance[-1] >= self.spec.objective - 1e-12

    def first_alert(self, severity: str = "page") -> Optional[BurnAlert]:
        for alert in self.alerts:
            if alert.severity == severity:
                return alert
        return None


class SloEngine:
    """Evaluates :class:`SloSpec` objectives against a :class:`Timeline`.

    Stateless between calls: hand it whatever timeline prefix exists and it
    recomputes compliance, burn rates, and alert edges from scratch (cheap
    — one pass per spec with prefix sums).
    """

    def __init__(self, specs: Sequence[SloSpec]) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("SLO spec names must be unique")
        self.specs = tuple(specs)

    # -- event extraction ------------------------------------------------

    def _events(
        self, spec: SloSpec, timeline: Timeline
    ) -> Tuple[List[float], List[float]]:
        """Per-tick (total, bad) event counts matching the spec's selector."""
        n = timeline.length
        total = [0.0] * n
        bad = [0.0] * n
        selector = spec.selector()
        if spec.kind == "timeliness":
            for series, entry in timeline.series.items():
                name, labels = parse_series(series)
                if not _matches(selector, labels):
                    continue
                if name == "client_reads_judged":
                    for j, v in enumerate(entry["deltas"]):
                        total[j] += v
                elif name == "client_timing_failures":
                    for j, v in enumerate(entry["deltas"]):
                        bad[j] += v
        else:
            bound = spec.staleness_bound
            assert bound is not None
            for series, entry in timeline.series.items():
                name, labels = parse_series(series)
                if name != "replica_staleness_wait_seconds":
                    continue
                if not _matches(selector, labels):
                    continue
                boundaries = entry["boundaries"]
                # A read in bucket i has wait <= boundaries[i]; buckets
                # whose upper edge exceeds the bound count as bad (the
                # conservative side of the quantization).
                for j, row in enumerate(entry["counts"]):
                    total[j] += entry["totals"][j]
                    for i, c in enumerate(row):
                        if not c:
                            continue
                        upper = (
                            boundaries[i]
                            if i < len(boundaries)
                            else float("inf")
                        )
                        if upper > bound:
                            bad[j] += c
        return total, bad

    # -- evaluation ------------------------------------------------------

    def evaluate(self, timeline: Timeline) -> Dict[str, SloReport]:
        """One :class:`SloReport` per spec, keyed by spec name."""
        return {
            spec.name: self._evaluate_spec(spec, timeline)
            for spec in self.specs
        }

    def _evaluate_spec(self, spec: SloSpec, timeline: Timeline) -> SloReport:
        report = SloReport(spec=spec)
        n = timeline.length
        if n == 0:
            return report
        total, bad = self._events(spec, timeline)
        report.times = timeline.times()
        report.good = [t - b for t, b in zip(total, bad)]
        report.bad = bad

        # Prefix sums for O(1) windows.
        cum_total = _prefix(total)
        cum_bad = _prefix(bad)

        fast_w = _window_ticks(spec.fast_window, timeline.interval)
        slow_w = _window_ticks(spec.slow_window, timeline.interval)
        fast_short = max(1, fast_w // 12)
        slow_short = max(1, slow_w // 12)
        budget = spec.budget

        paging = False
        ticketing = False
        for i in range(n):
            seen = cum_total[i + 1]
            bad_seen = cum_bad[i + 1]
            report.compliance.append(
                1.0 if seen == 0 else (seen - bad_seen) / seen
            )
            report.budget_consumed.append(
                0.0 if seen == 0 else bad_seen / (seen * budget)
            )
            fast = _burn(cum_total, cum_bad, i, fast_w, budget)
            slow = _burn(cum_total, cum_bad, i, slow_w, budget)
            report.fast_burn.append(fast)
            report.slow_burn.append(slow)

            page = (
                fast >= spec.fast_burn
                and _burn(cum_total, cum_bad, i, fast_short, budget)
                >= spec.fast_burn
            )
            ticket = (
                slow >= spec.slow_burn
                and _burn(cum_total, cum_bad, i, slow_short, budget)
                >= spec.slow_burn
            )
            if page and not paging:
                report.alerts.append(
                    BurnAlert(
                        time=report.times[i],
                        tick=timeline.start + i,
                        severity="page",
                        burn=fast,
                    )
                )
            if ticket and not ticketing:
                report.alerts.append(
                    BurnAlert(
                        time=report.times[i],
                        tick=timeline.start + i,
                        severity="ticket",
                        burn=slow,
                    )
                )
            paging = page
            ticketing = ticket
            report.alert_active.append(page)
        return report

    # -- controller API --------------------------------------------------

    def signals(self, timeline: Timeline) -> Dict[str, Dict[str, float]]:
        """Current control signals, one flat dict per spec name.

        This is the stable surface the adaptive controller consumes; keys
        are guaranteed:

        * ``time`` — timestamp of the last closed tick (0.0 if none);
        * ``compliance`` — good fraction so far (1.0 with no events);
        * ``objective`` — the spec's target, echoed for convenience;
        * ``budget_remaining`` — ``1 − consumed`` (may go negative);
        * ``fast_burn`` / ``slow_burn`` — current window burn rates;
        * ``alerting`` — 1.0 while the page-level alert condition holds.
        """
        out: Dict[str, Dict[str, float]] = {}
        for spec in self.specs:
            report = self._evaluate_spec(spec, timeline)
            if report.times:
                out[spec.name] = {
                    "time": report.times[-1],
                    "compliance": report.compliance[-1],
                    "objective": spec.objective,
                    "budget_remaining": 1.0 - report.budget_consumed[-1],
                    "fast_burn": report.fast_burn[-1],
                    "slow_burn": report.slow_burn[-1],
                    "alerting": 1.0 if report.alert_active[-1] else 0.0,
                }
            else:
                out[spec.name] = {
                    "time": 0.0,
                    "compliance": 1.0,
                    "objective": spec.objective,
                    "budget_remaining": 1.0,
                    "fast_burn": 0.0,
                    "slow_burn": 0.0,
                    "alerting": 0.0,
                }
        return out


def _matches(selector: Dict[str, str], labels: Dict[str, str]) -> bool:
    return all(labels.get(k) == v for k, v in selector.items())


def _prefix(values: List[float]) -> List[float]:
    out = [0.0]
    acc = 0.0
    for v in values:
        acc += v
        out.append(acc)
    return out


def _window_ticks(window: float, interval: float) -> int:
    return max(1, int(round(window / interval)))


def _burn(
    cum_total: List[float],
    cum_bad: List[float],
    i: int,
    w: int,
    budget: float,
) -> float:
    lo = max(0, i + 1 - w)
    total = cum_total[i + 1] - cum_total[lo]
    if total <= 0:
        # An empty window (no judged events — e.g. every read shed) is
        # *no evidence*, not an infinite burn; the controller must never
        # see a NaN here.
        return 0.0
    bad = cum_bad[i + 1] - cum_bad[lo]
    if budget <= 0.0:
        # Degenerate budget (objective rounded to 1.0 upstream): any bad
        # event is an instant page-level burn, zero bad burns nothing —
        # never a ZeroDivisionError/NaN.
        return float("inf") if bad > 0 else 0.0
    return (bad / total) / budget


# ---------------------------------------------------------------------------
# Staleness attribution aggregation
# ---------------------------------------------------------------------------
def attribution_summary(source) -> dict:
    """Aggregate the per-read staleness decomposition.

    ``source`` is either a :class:`Timeline` or a
    :meth:`MetricsRegistry.snapshot` dict.  Returns::

        {"observed_seconds": float,     # total staleness wait, all reads
         "reads": int,                  # reads carrying an observation
         "components": {component: seconds},
         "fractions": {component: share of observed_seconds}}

    The replica instrumentation guarantees the per-read components sum to
    the observed wait, so ``sum(components.values())`` equals
    ``observed_seconds`` up to float rounding.
    """
    components = {name: 0.0 for name in ATTRIBUTION_COMPONENTS}
    observed = 0.0
    reads = 0
    if isinstance(source, Timeline):
        for series, entry in source.series.items():
            name, labels = parse_series(series)
            if name == "replica_staleness_wait_component_seconds":
                component = labels.get("component", "")
                if component in components:
                    components[component] += float(sum(entry["deltas"]))
            elif name == "replica_staleness_wait_seconds":
                observed += float(sum(entry["sums"]))
                reads += int(sum(entry["totals"]))
    else:
        for series, entry in source.items():
            name, labels = parse_series(series)
            if name == "replica_staleness_wait_component_seconds":
                component = labels.get("component", "")
                if component in components:
                    components[component] += float(entry["value"])
            elif name == "replica_staleness_wait_seconds":
                observed += float(entry["sum"])
                reads += int(entry["count"])
    fractions = {
        name: (value / observed if observed > 0 else 0.0)
        for name, value in components.items()
    }
    return {
        "observed_seconds": observed,
        "reads": reads,
        "components": components,
        "fractions": fractions,
    }
