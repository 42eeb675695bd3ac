"""Metrics registry: counters, gauges, and log-scale histograms.

The registry is the numeric half of the telemetry layer (spans are the
structural half, see :mod:`repro.obs.spans`).  Design constraints, in order:

* **Cheap when off.**  A disabled registry hands out a shared no-op
  instrument, so instrumented code pays one attribute lookup and one no-op
  call per event — no branching at the call site.
* **Mergeable.**  The parallel experiment runner executes cells in worker
  processes; workers ship :meth:`MetricsRegistry.snapshot` dictionaries
  (plain picklable data) back to the parent, which folds them together with
  :meth:`MetricsRegistry.merge`.  Merge is commutative and associative so
  ``--jobs 4`` totals equal ``--jobs 1`` totals for the same seed.
* **Simulation-clock-aware.**  Instruments never read wall clocks; any
  timestamps come from the caller, which passes simulation time.

Instruments are memoized per ``(name, labels)`` pair, so holding onto the
returned object is an optimisation, not a requirement — but hot paths should
hold it.  A component's counter handle is its one public spelling of the
count (``client.reads_judged.value``): no property repeats it as an int.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_TIME_BUCKETS",
]

#: Log-scale (base-2) bucket boundaries for time-like observations, in
#: seconds: 100 µs, 200 µs, ... ~209 s.  Observations above the last
#: boundary land in the overflow bucket.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = tuple(1e-4 * (2.0 ** k) for k in range(22))

_LabelKey = Tuple[Tuple[str, str], ...]


class Counter:
    """A monotonically increasing integer-or-float counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins scalar (current queue depth, configured interval)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-boundary histogram with an overflow bucket.

    ``counts[i]`` holds observations ``<= boundaries[i]`` (and greater than
    ``boundaries[i-1]``); ``counts[-1]`` is the overflow bucket.  Boundaries
    are shared tuples, so a registry full of time histograms stores one
    boundary list.
    """

    __slots__ = ("boundaries", "counts", "count", "sum")

    def __init__(self, boundaries: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        self.boundaries: Tuple[float, ...] = tuple(boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value

    def observe_many(self, values, counts=None) -> None:
        """Fold a whole vector of observations in at once.

        Equivalent to calling :meth:`observe` per element — ``counts[i]``
        times for ``values[i]`` when ``counts`` is given; the bucketing
        runs as one ``searchsorted`` + ``bincount`` pass, which is what
        lets the aggregated client tier account a batch standing for
        millions of modeled response times as one grid of (value, count)
        pairs, without a Python-level loop.
        """
        import numpy as np

        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        if counts is None:
            weights = None
            total, value_sum = values.size, values.sum()
        else:
            # float64 weights are exact for counts below 2**53.
            weights = np.asarray(counts, dtype=float)
            total, value_sum = weights.sum(), values @ weights
        indices = np.searchsorted(self.boundaries, values, side="right")
        bucket_counts = np.bincount(
            indices, weights=weights, minlength=len(self.counts)
        )
        bucket_totals = self.counts
        for i, c in enumerate(bucket_counts):
            if c:
                bucket_totals[i] += int(c)
        self.count += int(total)
        self.sum += float(value_sum)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-boundary estimate of the ``q``-quantile (0 <= q <= 1)."""
        return bucket_quantile(self.boundaries, self.counts, self.count, q)


def bucket_quantile(
    boundaries: Sequence[float], counts: Sequence[int], total: int, q: float
) -> float:
    """Upper-boundary estimate of the ``q``-quantile of bucket ``counts``
    (``total`` observations; the last bucket is the overflow): the
    boundary of the first non-empty bucket at which the cumulative count
    reaches ``q · total``, the last boundary for the overflow bucket,
    ``inf`` with no boundaries, and ``0.0`` with no observations.  One
    rule for live histograms, snapshot entries and timeline rows."""
    if not total:
        return 0.0
    if not boundaries:
        return float("inf")
    target = q * total
    seen = 0
    for i, bucket_count in enumerate(counts):
        seen += bucket_count
        if seen >= target and bucket_count:
            return boundaries[min(i, len(boundaries) - 1)]
    return boundaries[-1]


class _NoopInstrument:
    """Stands in for every instrument type when the registry is disabled."""

    __slots__ = ()

    value = 0
    count = 0
    sum = 0.0
    mean = 0.0
    boundaries: Tuple[float, ...] = ()
    counts: list = []

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values, counts=None) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


_NOOP = _NoopInstrument()


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _series_name(name: str, key: _LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Factory and store for named instruments.

    ``counter``/``gauge``/``histogram`` create-or-return the instrument for
    ``(name, labels)``.  A name must keep a single instrument type for the
    registry's lifetime (mirrors Prometheus' data model and keeps snapshots
    unambiguous).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[Tuple[str, _LabelKey], object] = {}
        self._types: Dict[str, str] = {}

    # -- instrument factories -------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(name, "counter", Counter, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(name, "gauge", Gauge, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        boundaries: Sequence[float] = DEFAULT_TIME_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(  # type: ignore[return-value]
            name, "histogram", lambda: Histogram(boundaries), labels
        )

    def _get(self, name, type_name, factory, labels):
        if not self.enabled:
            return _NOOP
        declared = self._types.setdefault(name, type_name)
        if declared != type_name:
            raise TypeError(
                f"metric {name!r} already registered as {declared}, "
                f"requested as {type_name}"
            )
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = factory()
        return instrument

    # -- introspection --------------------------------------------------------

    def size(self) -> int:
        """Number of registered instruments (cheap; never shrinks)."""
        return len(self._instruments)

    def instruments(self) -> list:
        """``[(series, type, instrument)]`` in creation order.

        The live-instrument view behind :class:`~repro.obs.timeseries.
        TimeseriesRecorder`: reading instruments directly skips the
        per-tick dict/string building a full :meth:`snapshot` pays.
        """
        return [
            (_series_name(name, key), self._types[name], instrument)
            for (name, key), instrument in self._instruments.items()
        ]

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """Picklable, JSON-able view of every registered series.

        Keys are Prometheus-style series names (``name{k="v"}``); values are
        small dicts tagged with the instrument type.
        """
        out: Dict[str, dict] = {}
        for (name, key), instrument in self._instruments.items():
            series = _series_name(name, key)
            kind = self._types[name]
            if kind == "histogram":
                out[series] = {
                    "type": "histogram",
                    "boundaries": list(instrument.boundaries),
                    "counts": list(instrument.counts),
                    "sum": instrument.sum,
                    "count": instrument.count,
                }
            else:
                out[series] = {"type": kind, "value": instrument.value}
        return out

    @staticmethod
    def merge(*snapshots: Dict[str, dict]) -> Dict[str, dict]:
        """Fold snapshots: counters and histograms add, gauges take max.

        Max (not last-write) keeps the fold commutative, which is what makes
        parallel-runner totals independent of worker scheduling.
        """
        merged: Dict[str, dict] = {}
        for snap in snapshots:
            for series, entry in snap.items():
                have = merged.get(series)
                if have is None:
                    merged[series] = {
                        k: (list(v) if isinstance(v, list) else v)
                        for k, v in entry.items()
                    }
                    continue
                if have["type"] != entry["type"]:
                    raise TypeError(
                        f"series {series!r} has conflicting types: "
                        f"{have['type']} vs {entry['type']}"
                    )
                if entry["type"] == "counter":
                    have["value"] += entry["value"]
                elif entry["type"] == "gauge":
                    have["value"] = max(have["value"], entry["value"])
                else:
                    if have["boundaries"] != entry["boundaries"]:
                        raise ValueError(
                            f"series {series!r} has mismatched histogram "
                            "boundaries; cannot merge"
                        )
                    have["counts"] = [
                        a + b for a, b in zip(have["counts"], entry["counts"])
                    ]
                    have["sum"] += entry["sum"]
                    have["count"] += entry["count"]
        return merged

    @staticmethod
    def diff(new: Dict[str, dict], old: Dict[str, dict]) -> Dict[str, dict]:
        """Per-series delta ``new - old`` (gauges report their new value).

        Series absent from ``old`` are taken verbatim from ``new``; this is
        what ``--watch`` uses to print per-interval activity.
        """
        out: Dict[str, dict] = {}
        for series, entry in new.items():
            prev = old.get(series)
            if prev is None or entry["type"] == "gauge":
                out[series] = {
                    k: (list(v) if isinstance(v, list) else v)
                    for k, v in entry.items()
                }
                continue
            if entry["type"] == "counter":
                out[series] = {"type": "counter", "value": entry["value"] - prev["value"]}
            else:
                out[series] = {
                    "type": "histogram",
                    "boundaries": list(entry["boundaries"]),
                    "counts": [
                        a - b for a, b in zip(entry["counts"], prev["counts"])
                    ],
                    "sum": entry["sum"] - prev["sum"],
                    "count": entry["count"] - prev["count"],
                }
        return out


#: Shared disabled registry, analogous to ``sim.tracing.NULL_TRACE``: hand it
#: to components whose telemetry you want fully off.
NULL_METRICS = MetricsRegistry(enabled=False)

