"""What one cell produced, and the sim-clock metrics computed from it.

Every workload reduces a finished cell to one :class:`CellOutcome`.  Its
operation counts come from the public ``client_*`` counters of the
registry snapshot (``testbed.metrics.snapshot()`` or
``CampaignResult.metrics``), so the five workloads share one accounting
path: :func:`fractions` is the only place ``failed`` and ``timely`` are
defined.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.obs.slo import parse_series
from repro.stats.summary import percentile

#: The only registry series fed from the wall clock (Fig. 3's selection
#: overhead); everything else in a snapshot repeats exactly for a seed.
WALL_CLOCK_SERIES = "client_selection_overhead_seconds"


def _series(snapshot: Dict[str, dict], name: str, labels: Dict[str, str]) -> Iterator[dict]:
    """Entries of every series called ``name`` whose labels include ``labels``."""
    for series, entry in snapshot.items():
        series_name, series_labels = parse_series(series)
        if series_name == name and all(
            series_labels.get(k) == v for k, v in labels.items()
        ):
            yield entry


def snapshot_total(snapshot: Dict[str, dict], name: str, **labels: str) -> float:
    """Sum of a counter (or of a histogram's sample count) over every
    series called ``name`` whose labels include ``labels``."""
    return sum(
        entry["count"] if entry["type"] == "histogram" else entry["value"]
        for entry in _series(snapshot, name, labels)
    )


@dataclass
class Histogram:
    """Bucketed latencies: ``counts[i]`` samples in ``(lower[i], upper[i]]``."""

    lower: np.ndarray
    upper: np.ndarray
    counts: np.ndarray

    def __add__(self, other: "Histogram") -> "Histogram":
        if not np.array_equal(self.upper, other.upper):
            raise ValueError("histograms with different buckets cannot be pooled")
        return Histogram(self.lower, self.upper, self.counts + other.counts)

    @property
    def size(self) -> int:
        return int(self.counts.sum())

    def quantile(self, q: float) -> float:
        """``q``-quantile, interpolated linearly inside its bucket so that
        the value moves smoothly with the counts and not in bucket steps."""
        total = self.counts.sum()
        if total == 0:
            return 0.0
        cumulative = np.cumsum(self.counts)
        target = q * total
        i = int(np.searchsorted(cumulative, target, side="left"))
        below = cumulative[i] - self.counts[i]
        share = (target - below) / self.counts[i]
        return float(self.lower[i] + share * (self.upper[i] - self.lower[i]))


def registry_histogram(snapshot: Dict[str, dict], name: str, **labels: str) -> Histogram:
    """Pool the registry histograms called ``name`` (labels as in
    :func:`snapshot_total`).  The overflow bucket is closed at twice the
    last boundary so it can be interpolated like the others."""
    pooled = None
    for entry in _series(snapshot, name, labels):
        bounds = np.asarray(entry["boundaries"], dtype=float)
        hist = Histogram(
            lower=np.concatenate(([0.0], bounds)),
            upper=np.concatenate((bounds, [2.0 * bounds[-1]])),
            counts=np.asarray(entry["counts"], dtype=np.int64),
        )
        pooled = hist if pooled is None else pooled + hist
    if pooled is None:
        raise KeyError(f"no histogram {name!r} with labels {labels!r}")
    return pooled


def digest_of(lines: Iterable[str]) -> str:
    """sha256 of one cell's outcome, given as ordered text lines."""
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode())
        sha.update(b"\n")
    return sha.hexdigest()


@dataclass
class CellOutcome:
    """Everything the ledger keeps of one finished cell."""

    # Operation accounting, all clients of the cell.
    reads_issued: int
    reads_resolved: int  # the client handed the application an outcome
    reads_shed: int  # refused before dispatch
    updates_issued: int
    updates_acked: int
    staleness_violations: int
    violations: List[str]  # correctness failures found in this cell
    # Timeliness accounting, judged clients only.
    judged_attempted: int
    judged_timely: int
    judged_selected: int  # replicas Algorithm 1 picked, summed over reads
    judged_deferred: int
    # Latencies in seconds: exact samples where the outcomes are public,
    # a histogram where only aggregates are.
    read_latency: "np.ndarray | Histogram"
    update_latency: np.ndarray
    # digest_of() the ordered per-op tuples, or the aggregate fields.
    digest: str
    sim_seconds: float
    snapshot: Dict[str, dict] = field(repr=False, default_factory=dict)
    # Workload-specific public counts the per-layer table reads.
    extra: Dict[str, float] = field(default_factory=dict)

    # True when the workload injects faults.  What they cost is then what
    # the workload measures (ok_fraction, timely_fraction): the run itself
    # has not failed.  With no fault injected, any loss or violation has.
    faults_injected: bool = False

    @property
    def ops(self) -> int:
        """Resolved client reads plus acked client updates."""
        return self.reads_resolved + self.updates_acked

    @property
    def attempted(self) -> int:
        return self.reads_issued + self.reads_shed + self.updates_issued

    @property
    def lost(self) -> int:
        """Operations that were attempted and never completed."""
        return self.attempted - self.ops

    @property
    def not_ok(self) -> int:
        """Operations that were lost or cannot be trusted."""
        if self.violations:
            return self.attempted  # nothing a violating cell did counts
        return self.lost + self.staleness_violations

    @property
    def failed(self) -> int:
        return 0 if self.faults_injected else self.not_ok


def fractions(cells: Iterable[CellOutcome]) -> Tuple[float, float, int, int]:
    """``(ok_fraction, timely_fraction, failed, attempted)`` of a run.

    A read that was shed, refused, never resolved or answered late is not
    timely.  A read or update that never completed, a staleness violation
    and every operation of a cell with a correctness violation is not ok;
    it is also a failed operation unless the workload injected faults.
    """
    cells = list(cells)
    attempted = sum(c.attempted for c in cells)
    judged = sum(c.judged_attempted for c in cells)
    return (
        1.0 - sum(c.not_ok for c in cells) / attempted if attempted else 0.0,
        sum(c.judged_timely for c in cells) / judged if judged else 0.0,
        sum(c.failed for c in cells),
        attempted,
    )


def pooled_read_latency(cells: Sequence[CellOutcome]) -> "np.ndarray | Histogram":
    first = cells[0].read_latency
    if isinstance(first, Histogram):
        pooled = first
        for cell in cells[1:]:
            pooled = pooled + cell.read_latency
        return pooled
    return np.concatenate([c.read_latency for c in cells])


def quantile_ms(latency: "np.ndarray | Histogram", q: float) -> float:
    """``q``-quantile in milliseconds; 0.0 when there is no sample."""
    if isinstance(latency, Histogram):
        return 1e3 * latency.quantile(q)
    return 1e3 * percentile(latency.tolist(), 100.0 * q) if latency.size else 0.0


def outcome_digest(cells: Iterable[CellOutcome]) -> str:
    """sha256 over the cells' digests, in cell order."""
    return digest_of(cell.digest for cell in cells)


def client_counts(snapshot: Dict[str, dict], judged: Sequence[str]) -> dict:
    """The ``CellOutcome`` counting fields, read from a registry snapshot.

    A read the client garbage-collected without ever getting a reply is
    resolved (the application was told it failed) and not timely.
    """
    total = lambda name, **labels: int(snapshot_total(snapshot, name, **labels))
    per_judged = lambda name: sum(total(name, client=c) for c in judged)
    return dict(
        reads_issued=total("client_reads_issued"),
        reads_resolved=total("client_reads_resolved"),
        reads_shed=total("client_reads_shed"),
        updates_issued=total("client_updates_issued"),
        updates_acked=total("client_updates_resolved"),
        judged_attempted=per_judged("client_reads_issued")
        + per_judged("client_reads_shed"),
        judged_timely=per_judged("client_reads_judged")
        - per_judged("client_timing_failures"),
        judged_selected=per_judged("client_replicas_selected"),
        judged_deferred=per_judged("client_deferred_replies"),
    )


def snapshot_digest_lines(snapshot: Dict[str, dict]) -> List[str]:
    """The snapshot as digest input, minus its one wall-clock series."""
    return [
        f"{series}={entry!r}"
        for series, entry in sorted(snapshot.items())
        if parse_series(series)[0] != WALL_CLOCK_SERIES
    ]
