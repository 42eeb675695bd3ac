"""Simulation-clock time series on top of :class:`MetricsRegistry`.

PR 4's registry answers *"what happened over the whole run"*; the ROADMAP's
closed-loop controller needs *"what is happening right now"*.  This module
adds the missing time axis:

* :class:`TimeseriesRecorder` — schedules a periodic simulation-clock tick
  that deltas consecutive :meth:`MetricsRegistry.snapshot` dicts into
  fixed-interval series: per-interval **deltas** for counters (rates are
  ``delta / interval``), **last-value** samples for gauges, and windowed
  per-interval bucket counts for histograms (so any tick range yields exact
  windowed quantiles).  A bounded ring buffer caps memory: once ``capacity``
  ticks are held, the oldest tick is evicted and ``start`` advances.
* :class:`Timeline` — the recorded data, aligned on absolute tick indices
  (tick ``i`` covers simulated time ``[i·interval, (i+1)·interval)``), with
  a **commutative** :meth:`Timeline.merge` so per-cell timelines from a
  ``--jobs N`` sweep fold into one fleet-wide timeline in any order.

Everything here *observes*; nothing mutates simulation state or consumes
RNG.  With no recorder attached (``timeseries=None`` in the harnesses) not
a single event is scheduled, so disabled runs are bit-identical to a tree
without this module.  See DESIGN.md §15.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import bucket_quantile

__all__ = ["Timeline", "TimeseriesRecorder"]


class Timeline:
    """Fixed-interval series extracted from registry snapshots.

    ``series`` maps the registry's Prometheus-style series name to one dict:

    * counter — ``{"type": "counter", "deltas": [v, ...]}`` (per-tick
      increments; ints stay ints, float counters stay floats);
    * gauge — ``{"type": "gauge", "values": [v | None, ...]}`` (the value at
      each tick boundary; ``None`` marks ticks before the gauge existed);
    * histogram — ``{"type": "histogram", "boundaries": [...],
      "counts": [[...], ...], "sums": [...], "totals": [...]}`` (per-tick
      *delta* bucket rows, observation sums, and observation counts).

    Every list has length :attr:`length`, and index ``j`` describes absolute
    tick ``start + j``.
    """

    __slots__ = ("interval", "start", "length", "series")

    def __init__(
        self,
        interval: float,
        start: int = 0,
        length: int = 0,
        series: Optional[Dict[str, dict]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("timeline interval must be positive")
        self.interval = float(interval)
        self.start = int(start)
        self.length = int(length)
        self.series: Dict[str, dict] = series if series is not None else {}

    # -- basic views ----------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def times(self) -> List[float]:
        """Tick-end timestamps: tick ``i`` closes at ``(i + 1) · interval``."""
        return [
            (self.start + j + 1) * self.interval for j in range(self.length)
        ]

    def rate(self, series: str) -> List[float]:
        """Per-second rate of a counter series (``delta / interval``)."""
        entry = self._entry(series, "counter")
        return [value / self.interval for value in entry["deltas"]]

    def deltas(self, series: str) -> list:
        return list(self._entry(series, "counter")["deltas"])

    def values(self, series: str) -> list:
        return list(self._entry(series, "gauge")["values"])

    def quantiles(self, series: str, q: float) -> List[float]:
        """Windowed ``q``-quantile of a histogram series, one per tick.

        Ticks with no observations report ``0.0`` (same convention as
        :meth:`repro.obs.metrics.Histogram.quantile` on an empty histogram).
        """
        entry = self._entry(series, "histogram")
        boundaries = entry["boundaries"]
        return [
            bucket_quantile(boundaries, row, total, q)
            for row, total in zip(entry["counts"], entry["totals"])
        ]

    def _entry(self, series: str, kind: str) -> dict:
        entry = self.series[series]
        if entry["type"] != kind:
            raise TypeError(
                f"series {series!r} is a {entry['type']}, not a {kind}"
            )
        return entry

    # -- merge ----------------------------------------------------------

    @staticmethod
    def merge(*timelines: "Timeline") -> "Timeline":
        """Fold timelines into one; commutative and associative.

        Tick ranges are aligned on absolute indices; counter deltas and
        histogram rows **add**, gauges take the **max** of present samples
        (the same fold :meth:`MetricsRegistry.merge` uses, which is what
        keeps ``--jobs N`` results independent of worker scheduling).
        All inputs must share the tick interval.
        """
        timelines = tuple(t for t in timelines if t is not None)
        if not timelines:
            return Timeline(1.0)
        interval = timelines[0].interval
        for t in timelines[1:]:
            if t.interval != interval:
                raise ValueError(
                    f"cannot merge timelines with intervals "
                    f"{interval} and {t.interval}"
                )
        populated = [t for t in timelines if t.length]
        if not populated:
            return Timeline(interval)
        start = min(t.start for t in populated)
        end = max(t.start + t.length for t in populated)
        length = end - start
        merged = Timeline(interval, start=start, length=length)
        for t in populated:
            offset = t.start - start
            for name, entry in t.series.items():
                have = merged.series.get(name)
                if have is None:
                    have = merged.series[name] = _blank_entry(entry, length)
                elif have["type"] != entry["type"]:
                    raise TypeError(
                        f"series {name!r} has conflicting types: "
                        f"{have['type']} vs {entry['type']}"
                    )
                _fold_entry(have, entry, offset)
        return merged

    @staticmethod
    def merge_payloads(payloads: Iterable[Optional[dict]]) -> Optional["Timeline"]:
        """:meth:`merge` of the non-``None`` :meth:`to_dict` payloads (the
        per-cell ``timeline`` fields of a sweep); ``None`` when there are
        none."""
        timelines = [Timeline.from_dict(p) for p in payloads if p is not None]
        return Timeline.merge(*timelines) if timelines else None

    # -- plain-dict round trip (JSONL artifacts) ------------------------

    def to_dict(self) -> dict:
        """JSON-able payload; exact inverse of :meth:`from_dict`."""
        return {
            "interval": self.interval,
            "start": self.start,
            "length": self.length,
            "series": {
                name: {
                    key: ([list(row) for row in value] if key == "counts"
                          else list(value) if isinstance(value, list) else value)
                    for key, value in entry.items()
                }
                for name, entry in self.series.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Timeline":
        return cls(
            interval=payload["interval"],
            start=payload["start"],
            length=payload["length"],
            series={
                name: dict(entry) for name, entry in payload["series"].items()
            },
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timeline):
            return NotImplemented
        return (
            self.interval == other.interval
            and self.start == other.start
            and self.length == other.length
            and self.series == other.series
        )


def _blank_entry(template: dict, length: int) -> dict:
    kind = template["type"]
    if kind == "counter":
        return {"type": "counter", "deltas": [0] * length}
    if kind == "gauge":
        return {"type": "gauge", "values": [None] * length}
    boundaries = list(template["boundaries"])
    width = len(boundaries) + 1
    return {
        "type": "histogram",
        "boundaries": boundaries,
        "counts": [[0] * width for _ in range(length)],
        "sums": [0.0] * length,
        "totals": [0] * length,
    }


def _fold_entry(have: dict, entry: dict, offset: int) -> None:
    kind = entry["type"]
    if kind == "counter":
        deltas = have["deltas"]
        for j, value in enumerate(entry["deltas"]):
            deltas[offset + j] += value
    elif kind == "gauge":
        values = have["values"]
        for j, value in enumerate(entry["values"]):
            if value is None:
                continue
            at = offset + j
            current = values[at]
            values[at] = value if current is None else max(current, value)
    else:
        if have["boundaries"] != list(entry["boundaries"]):
            raise ValueError(
                "cannot merge histogram series with mismatched boundaries"
            )
        counts = have["counts"]
        sums = have["sums"]
        totals = have["totals"]
        for j, row in enumerate(entry["counts"]):
            target = counts[offset + j]
            for i, c in enumerate(row):
                target[i] += c
        for j, value in enumerate(entry["sums"]):
            sums[offset + j] += value
        for j, value in enumerate(entry["totals"]):
            totals[offset + j] += value


class TimeseriesRecorder:
    """Periodically deltas a registry's snapshots into a :class:`Timeline`.

    ``start()`` takes the baseline snapshot and schedules the first tick;
    every ``interval`` simulated seconds the recorder snapshots the
    registry, appends the per-series delta, and reschedules itself.  The
    recorder is an observer: it reads the registry and the clock, touches
    no RNG stream, and mutates nothing the simulation reads — so recorded
    and unrecorded runs produce identical experiment results, and a run
    with no recorder schedules no events at all.

    ``capacity`` bounds the ring: beyond it the oldest ticks are evicted
    and :attr:`Timeline.start` advances (a 12-hour soak at a 250 ms tick
    keeps the most recent ~17 minutes at the default 4096).
    """

    def __init__(
        self,
        sim,
        registry,
        interval: float = 0.25,
        capacity: int = 4096,
    ) -> None:
        if interval <= 0:
            raise ValueError("recorder interval must be positive")
        if capacity < 1:
            raise ValueError("recorder capacity must be at least 1")
        self.sim = sim
        self.registry = registry
        self.interval = float(interval)
        self.capacity = int(capacity)
        self._timeline = Timeline(self.interval)
        self._started = False
        # Per-series state, split by kind so each tick is three tight
        # loops over live instruments instead of a full registry
        # snapshot (which rebuilds every series-name string and copies
        # every bucket list; at a few hundred series that dominates the
        # tick).  Counter/gauge records are ``[instrument, samples,
        # prev_value]``; histogram records are ``[instrument, entry,
        # prev_counts, prev_count, prev_sum, width]``.
        self._known = 0
        self._counters: list = []
        self._gauges: list = []
        self._hists: list = []

    def start(self) -> "TimeseriesRecorder":
        """Baseline the registry and schedule the periodic tick."""
        if self._started:
            return self
        self._started = True
        self._rescan(baseline=True)
        self._timeline.start = int(round(self.sim.now / self.interval))
        self.sim.schedule(self.interval, self._tick)
        return self

    def _tick(self) -> None:
        self._record()
        self.sim.schedule(self.interval, self._tick)

    def _rescan(self, baseline: bool = False) -> None:
        """Adopt instruments created since the last scan.

        With ``baseline`` the current reading becomes the zero point
        (``start()``); otherwise previous values start at zero so the
        next tick captures everything since the instrument appeared.
        The registry never drops instruments and its dict preserves
        creation order, so only the tail is new.
        """
        items = self.registry.instruments()
        length = self._timeline.length
        series = self._timeline.series
        for name, kind, instrument in items[self._known :]:
            if kind == "counter":
                entry = series[name] = {"type": "counter", "deltas": [0] * length}
                prev = instrument.value if baseline else 0
                self._counters.append([instrument, entry["deltas"], prev])
            elif kind == "gauge":
                entry = series[name] = {"type": "gauge", "values": [None] * length}
                prev = instrument.value if baseline else 0.0
                self._gauges.append([instrument, entry["values"], prev])
            else:
                width = len(instrument.counts)
                entry = series[name] = {
                    "type": "histogram",
                    "boundaries": list(instrument.boundaries),
                    "counts": [[0] * width for _ in range(length)],
                    "sums": [0.0] * length,
                    "totals": [0] * length,
                }
                if baseline:
                    self._hists.append(
                        [
                            instrument,
                            entry,
                            list(instrument.counts),
                            instrument.count,
                            instrument.sum,
                            width,
                        ]
                    )
                else:
                    self._hists.append(
                        [instrument, entry, [0] * width, 0, 0.0, width]
                    )
        self._known = len(items)

    def _record(self) -> None:
        if self.registry.size() != self._known:
            self._rescan()
        timeline = self._timeline
        for rec in self._counters:
            value = rec[0].value
            rec[1].append(value - rec[2])
            rec[2] = value
        for rec in self._gauges:
            value = rec[0].value
            rec[1].append(float(value))
            rec[2] = value
        for rec in self._hists:
            instrument = rec[0]
            entry = rec[1]
            count = instrument.count
            if count == rec[3]:
                # No observations this tick: histogram state is frozen
                # (count is monotone), so the delta row is all zeros.
                entry["counts"].append([0] * rec[5])
                entry["sums"].append(0.0)
                entry["totals"].append(0)
            else:
                counts = list(instrument.counts)
                entry["counts"].append(
                    [a - b for a, b in zip(counts, rec[2])]
                )
                total = instrument.sum
                entry["sums"].append(total - rec[4])
                entry["totals"].append(count - rec[3])
                rec[2] = counts
                rec[3] = count
                rec[4] = total
        timeline.length += 1
        if timeline.length > self.capacity:
            self._evict(timeline.length - self.capacity)

    def _evict(self, n: int) -> None:
        timeline = self._timeline
        for entry in timeline.series.values():
            if entry["type"] == "counter":
                del entry["deltas"][:n]
            elif entry["type"] == "gauge":
                del entry["values"][:n]
            else:
                del entry["counts"][:n]
                del entry["sums"][:n]
                del entry["totals"][:n]
        timeline.start += n
        timeline.length -= n

    def flush(self) -> None:
        """Capture activity since the last tick as one final partial tick.

        Call after the simulation drains so the tail of the run (anything
        shorter than one full interval) is not lost from the timeline.
        No-op when nothing changed since the last tick.
        """
        if self._started and self._changed():
            self._record()

    def _changed(self) -> bool:
        """Anything moved since the last tick (cheap scalar comparisons)."""
        if self.registry.size() != self._known:
            return True
        for rec in self._counters:
            if rec[0].value != rec[2]:
                return True
        for rec in self._gauges:
            if rec[0].value != rec[2]:
                return True
        for rec in self._hists:
            if rec[0].count != rec[3]:
                return True
        return False

    def timeline(self) -> Timeline:
        """The recorded timeline (live view; copy via to_dict if needed)."""
        return self._timeline

