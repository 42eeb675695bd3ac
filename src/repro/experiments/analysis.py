"""Post-run analysis of a simulated deployment.

Turns handler counters, traces, and client outcomes into the reports an
operator (or a reviewer) would ask for:

* :func:`replica_load_report` — per-replica reads/updates/deferred counts,
  utilization (busy time over elapsed time), and the load-imbalance metric
  used by the hot-spot validation;
* :func:`message_profile` — traffic accounting by payload type from the
  network trace (what the protocol actually costs on the wire);
* :func:`client_consistency_report` — client-observable consistency and
  timeliness: response-time percentiles, timing-failure and deferred
  fractions, and *observed staleness* — how far behind the newest version
  this client had already seen each response was (a client-side analogue
  of TACT's staleness metric, measurable without global knowledge);
* :func:`selection_profile` — the distribution of selected-set sizes, the
  direct client-side view of Figure 4(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.client import ClientHandler
from repro.core.requests import ReadOutcome
from repro.core.service import ReplicatedService
from repro.sim.tracing import Trace
from repro.stats.summary import percentile


# ---------------------------------------------------------------------------
# Replica load
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaLoad:
    name: str
    role: str  # "sequencer" / "primary" / "secondary"
    reads_served: int
    updates_committed: int
    deferred_reads: int
    utilization: float


@dataclass(frozen=True)
class LoadReport:
    replicas: tuple[ReplicaLoad, ...]

    def read_imbalance(self) -> float:
        """max/mean reads served over the serving replicas (1.0 = even)."""
        return max_mean_imbalance(
            [r.reads_served for r in self.replicas if r.role != "sequencer"]
        )

    def total_reads(self) -> int:
        return sum(r.reads_served for r in self.replicas)

    def rows(self) -> list[tuple]:
        return [
            (r.name, r.role, r.reads_served, r.updates_committed,
             r.deferred_reads, round(r.utilization, 4))
            for r in self.replicas
        ]


def max_mean_imbalance(counts: Sequence[int]) -> float:
    """max/mean of per-replica counts; 1.0 is perfectly balanced, and also
    what an empty or all-zero list reports."""
    if not counts or sum(counts) == 0:
        return 1.0
    mean = sum(counts) / len(counts)
    return max(counts) / mean


def replica_load_report(service: ReplicatedService, elapsed: float) -> LoadReport:
    """Summarize what every replica did during ``elapsed`` seconds."""
    if elapsed <= 0:
        raise ValueError(f"elapsed must be positive, got {elapsed!r}")
    loads = []
    sequencer_name = service.sequencer_name
    for handler in service.all_replicas():
        if handler.name == sequencer_name:
            role = "sequencer"
        elif handler.is_primary:
            role = "primary"
        else:
            role = "secondary"
        loads.append(
            ReplicaLoad(
                name=handler.name,
                role=role,
                reads_served=handler.reads_served.value,
                updates_committed=handler.updates_committed.value,
                deferred_reads=handler.deferred_reads_served.value,
                utilization=min(1.0, handler.busy_time / elapsed),
            )
        )
    return LoadReport(tuple(loads))


# ---------------------------------------------------------------------------
# Wire traffic
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MessageProfile:
    delivered_by_kind: dict[str, int]
    dropped_by_reason: dict[str, int]

    def total_delivered(self) -> int:
        return sum(self.delivered_by_kind.values())

    def total_dropped(self) -> int:
        return sum(self.dropped_by_reason.values())

    def rows(self) -> list[tuple]:
        return sorted(
            self.delivered_by_kind.items(), key=lambda kv: -kv[1]
        )


def message_profile(trace: Trace) -> MessageProfile:
    """Traffic accounting from a network trace (``net.deliver``/``net.drop``)."""
    delivered: dict[str, int] = {}
    dropped: dict[str, int] = {}
    for record in trace.filter(category="net.deliver"):
        kind = record.detail.get("kind", "?")
        delivered[kind] = delivered.get(kind, 0) + 1
    for record in trace.filter(category="net.drop"):
        reason = record.detail.get("reason", "?")
        dropped[reason] = dropped.get(reason, 0) + 1
    return MessageProfile(delivered, dropped)


# ---------------------------------------------------------------------------
# Client-observable consistency and timeliness
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ClientConsistencyReport:
    reads: int
    timing_failure_fraction: float
    deferred_fraction: float
    response_time_p50_ms: float
    response_time_p95_ms: float
    response_time_p99_ms: float
    # Observed staleness: versions behind the freshest version this client
    # had seen by the time of each response (0 = monotone-fresh).
    observed_staleness_max: int
    observed_staleness_mean: float
    staleness_bound_violations: int  # vs. each read's own threshold


def client_consistency_report(
    outcomes: Sequence[ReadOutcome],
    staleness_thresholds: Optional[Sequence[int]] = None,
) -> ClientConsistencyReport:
    """Summarize a client's reads.

    ``staleness_thresholds`` aligns with ``outcomes`` when per-read
    thresholds vary; a single-element sequence is broadcast.
    """
    answered = [o for o in outcomes if o.response_time is not None]
    if not answered:
        raise ValueError("no answered reads to analyze")
    times_ms = [o.response_time * 1000 for o in answered]

    newest = 0
    staleness_values: list[int] = []
    violations = 0
    if staleness_thresholds is not None and len(staleness_thresholds) == 1:
        staleness_thresholds = list(staleness_thresholds) * len(outcomes)
    for index, outcome in enumerate(outcomes):
        if outcome.response_time is None:
            continue
        staleness = max(0, newest - outcome.gsn)
        staleness_values.append(staleness)
        newest = max(newest, outcome.gsn)
        if staleness_thresholds is not None:
            if staleness > staleness_thresholds[index]:
                violations += 1

    return ClientConsistencyReport(
        reads=len(outcomes),
        timing_failure_fraction=(
            sum(1 for o in outcomes if o.timing_failure) / len(outcomes)
        ),
        deferred_fraction=sum(1 for o in outcomes if o.deferred) / len(outcomes),
        response_time_p50_ms=percentile(times_ms, 50),
        response_time_p95_ms=percentile(times_ms, 95),
        response_time_p99_ms=percentile(times_ms, 99),
        observed_staleness_max=max(staleness_values),
        observed_staleness_mean=sum(staleness_values) / len(staleness_values),
        staleness_bound_violations=violations,
    )


# ---------------------------------------------------------------------------
# Selection behaviour
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SelectionProfile:
    histogram: dict[int, int]  # selected-set size -> count

    def mean(self) -> float:
        total = sum(self.histogram.values())
        if total == 0:
            return 0.0
        return sum(size * count for size, count in self.histogram.items()) / total

    def mode(self) -> int:
        if not self.histogram:
            return 0
        return max(self.histogram.items(), key=lambda kv: (kv[1], -kv[0]))[0]

    def rows(self) -> list[tuple[int, int]]:
        return sorted(self.histogram.items())


def selection_profile(client: ClientHandler) -> SelectionProfile:
    histogram: dict[int, int] = {}
    for count in client.selected_counts:
        histogram[count] = histogram.get(count, 0) + 1
    return SelectionProfile(histogram)
