"""The client-side information repository (§5.2, §5.4).

Each client gateway keeps, per replica, sliding windows of the most recent
``l`` measurements of service time ``t_s``, queuing delay ``t_q``, and
deferred-read buffering time ``t_b`` (fed by the replicas' performance
broadcasts), the most recently observed two-way gateway delay ``t_g``
(derived from replies; §5.2.1 keeps only the latest value because the
gateway delay "does not fluctuate as much as the other parameters do"),
and the time a reply was last received (for the elapsed-response-time
``ert`` ordering that avoids hot spots).  The replicas heard from are also
kept in the order of their last read reply, which is Algorithm 1's
line-2 visiting order without a sort.

For the staleness model (§5.4.1) it keeps a sliding window of the lazy
publisher's ``<n_u, t_u>`` pairs (update-arrival-rate estimate) and the
most recent ``<n_L, t_L>`` with its local receipt time (so
``t_l = (t_L + t_z) mod T_L`` can be evaluated at selection time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.requests import PerfBroadcast
from repro.stats.pmf import DEFAULT_QUANTUM
from repro.stats.sliding_window import PairWindow, SlidingWindow


@dataclass
class ReplicaStats:
    """Per-replica performance history at one client."""

    ts_window: SlidingWindow
    tq_window: SlidingWindow
    tb_window: SlidingWindow
    latest_tg: Optional[float] = None
    last_reply_at: Optional[float] = None
    broadcasts_received: int = 0

    @property
    def has_history(self) -> bool:
        return bool(self.ts_window) and bool(self.tq_window)


# Not frozen (one per publisher broadcast heard); treat as immutable.
@dataclass(slots=True, unsafe_hash=True)
class LazyObservation:
    """The most recent ``<n_L, t_L>`` from the publisher, with receipt time.

    ``interval`` is the lazy update interval the publisher announced (set
    when the adaptive controller is tuning T_L; None means "use the
    configured constant").
    """

    n_l: int
    t_l: float
    received_at: float
    interval: Optional[float] = None


class ClientInfoRepository:
    """Everything one client has learned by monitoring the replicas."""

    def __init__(
        self, window_size: int = 20, quantum: float = DEFAULT_QUANTUM
    ) -> None:
        if window_size <= 0:
            raise ValueError(f"window size must be positive, got {window_size!r}")
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum!r}")
        self.window_size = window_size
        # The one grid: the windows bin their samples on it, and the
        # predictor counts on it.
        self.quantum = float(quantum)
        self._stats: dict[str, ReplicaStats] = {}
        # Replicas with a read reply, oldest last reply first: decreasing
        # ert.  record_reply moves a replica to the end, and the simulated
        # clock never goes back, so the order holds without a sort.
        self.by_last_reply: dict[str, ReplicaStats] = {}
        self.update_rate_window = PairWindow(window_size)
        self.latest_lazy: Optional[LazyObservation] = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def stats_for(self, replica: str) -> ReplicaStats:
        stats = self._stats.get(replica)
        if stats is None:
            stats = ReplicaStats(
                ts_window=SlidingWindow(self.window_size, self.quantum),
                tq_window=SlidingWindow(self.window_size, self.quantum),
                tb_window=SlidingWindow(self.window_size, self.quantum),
            )
            self._stats[replica] = stats
        return stats

    def ert(self, replica: str, now: float) -> float:
        """Elapsed response time: time since the last reply from ``replica``.

        Replicas never heard from sort first (infinite ert), which is what
        bootstraps their history.
        """
        stats = self._stats.get(replica)
        if stats is None or stats.last_reply_at is None:
            return math.inf
        return now - stats.last_reply_at

    # ------------------------------------------------------------------
    # Ingest (called by the client gateway handler)
    # ------------------------------------------------------------------
    def record_broadcast(self, broadcast: PerfBroadcast) -> None:
        """Fold one performance broadcast into the windows (§5.4)."""
        stats = self.stats_for(broadcast.replica)
        stats.ts_window.record(broadcast.ts)
        stats.tq_window.record(broadcast.tq)
        if broadcast.tb is not None:
            stats.tb_window.record(broadcast.tb)
        stats.broadcasts_received += 1

    def record_staleness(self, broadcast: PerfBroadcast, now: float) -> None:
        """Fold the lazy publisher's staleness fields (§5.4.1)."""
        info = broadcast.staleness
        if info is None:
            return
        if info.t_u > 0:
            self.update_rate_window.record(info.n_u, info.t_u)
        self.latest_lazy = LazyObservation(
            info.n_l, info.t_l, now, info.lazy_interval
        )

    def record_reply(
        self, replica: str, tg: float, now: float, read: bool = True
    ) -> None:
        """Record the gateway delay and reply time derived from a reply.

        ``ert`` tracks *read* replies only: updates go to every primary
        regardless of selection, so counting their acks would permanently
        depress the primaries' ert, starve them of read duty, and silence
        the lazy publisher's staleness broadcasts (which ride on read
        completions, §5.4.1).  The gateway delay is refreshed either way.
        ``now`` never decreases from one call to the next (it is the
        simulated clock), which keeps :attr:`by_last_reply` in order.
        """
        stats = self.stats_for(replica)
        stats.latest_tg = max(0.0, tg)
        if read:
            stats.last_reply_at = now
            order = self.by_last_reply
            order.pop(replica, None)
            order[replica] = stats

    # ------------------------------------------------------------------
    # Staleness-model inputs (§5.4.1)
    # ------------------------------------------------------------------
    def update_arrival_rate(self) -> float:
        """``lambda_u`` = sum(n_u) / sum(t_u) over the sliding window."""
        return self.update_rate_window.rate(default=0.0)

    def lazy_interval(self, configured: float) -> float:
        """The ``T_L`` in force: the publisher's announced live interval
        (adaptive T_L) when there is one, else the ``configured`` constant.

        The one precedence rule for every model that needs ``T_L`` — the
        ``t_l`` modulo below and the predictor's Uniform(0, T_L) lazy wait.
        """
        lazy = self.latest_lazy
        if lazy is not None and lazy.interval is not None and lazy.interval > 0:
            return lazy.interval
        return configured

    def time_since_lazy_update(self, now: float, lazy_interval: float) -> float:
        """``t_l = (t_L + t_z) mod T_L`` (§5.4.1); 0 if nothing observed.

        ``lazy_interval`` is the configured constant; :meth:`lazy_interval`
        resolves it against the publisher's announcement.
        """
        if lazy_interval <= 0:
            raise ValueError(f"lazy interval must be positive, got {lazy_interval!r}")
        if self.latest_lazy is None:
            return 0.0
        t_z = now - self.latest_lazy.received_at
        return (self.latest_lazy.t_l + t_z) % self.lazy_interval(lazy_interval)
