"""Deadline-budget-aware retry, hedging and back-off for reads (DESIGN.md §9).

A client built with a :class:`RetryPolicy` owns one :class:`ReadRetry`,
which makes every re-dispatch decision after Algorithm 1 chose a read's
replicas: the issue-time hedge, the no-reply and suspicion checkpoints,
the back-off an :class:`~repro.core.requests.OverloadReply` imposes, and
the failover re-dispatch when a view change evicts every live target.
Without a policy the client has none, and none of this runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.judge import PendingCall
from repro.core.qos import QoSSpec
from repro.core.requests import OverloadReply, RequestKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.client import ClientHandler

#: Retry policy shape: a retry needs at least ``MIN_REMAINING_BUDGET``
#: seconds of deadline left, the no-reply checkpoint fires at
#: ``CHECKPOINT_FRACTION`` of the remaining budget, and a read is hedged
#: when its ``P_c(d)`` is at least ``HEDGE_MIN_PROBABILITY``.
MIN_REMAINING_BUDGET = 0.020
CHECKPOINT_FRACTION = 0.6
HEDGE_MIN_PROBABILITY = 0.9


@dataclass(frozen=True)
class RetryPolicy:
    """Re-dispatch of reads whose selected replicas go quiet — crash,
    eviction, overload — to the next-best replica of the §5 model.

    ``max_retries`` bounds re-dispatches per read (hedges not counted), and
    ``hedge`` duplicates a demanding single-replica read to the runner-up
    at issue time.  Each read is still judged once: retries never
    double-count in the timing statistics.
    """

    max_retries: int = 1
    hedge: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"negative max_retries {self.max_retries!r}")


class ReadRetry:
    """One client's re-dispatch decisions under a :class:`RetryPolicy`."""

    def __init__(self, client: "ClientHandler", policy: RetryPolicy) -> None:
        self.client = client
        self.policy = policy
        # Replica-name -> earliest time a new dispatch there is allowed
        # again (populated by OverloadReply.retry_after back-pressure).
        self._shed_until: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Issue time
    # ------------------------------------------------------------------
    def hedge(
        self, qos: QoSSpec, selection: tuple[str, ...]
    ) -> Optional[tuple[str, bool]]:
        """The runner-up a single-replica read is duplicated to, and whether
        suspicion triggered it: a demanding read is hedged, and so is one
        whose sole target's φ is elevated but not yet ejectable (§14)."""
        if not self.policy.hedge or len(selection) != 1:
            return None
        detector = self.client.detector
        suspicious = detector is not None and detector.alarmed(selection[0])
        if qos.min_probability < HEDGE_MIN_PROBABILITY and not suspicious:
            return None
        target = self._next_best_replica(qos, set(selection), qos.deadline)
        return None if target is None else (target, suspicious)

    def hedged(self, pending: PendingCall, target: str, suspicious: bool) -> None:
        """Account the issue-time hedge of a read just built."""
        client = self.client
        pending.hedge_targets.add(target)
        client.hedges_sent.inc()
        if suspicious:
            client.detector_hedges.inc()
        client.emit_dispatch(pending, target, "hedge")

    def arm(self, pending: PendingCall) -> None:
        """Arm a fresh read's no-reply checkpoint, and under a φ-detector its
        suspicion checkpoint at half the delay."""
        if self.policy.max_retries <= 0:
            return
        client = self.client
        rid = pending.request.request_id
        delay = pending.qos.deadline * CHECKPOINT_FRACTION
        pending.retry_event = client.sim.schedule(delay, self._checkpoint, rid)
        if client.detector is not None:
            pending.suspicion_event = client.sim.schedule(
                delay / 2.0, self._suspicion_checkpoint, rid
            )

    # ------------------------------------------------------------------
    # Checkpoints: their timers carry the request id (see TimingJudge), and
    # the judge cancels them when the read closes.
    # ------------------------------------------------------------------
    def _suspicion_checkpoint(self, request_id: int) -> None:
        """Early no-reply check (DESIGN.md §14): a live target that has
        become suspect since dispatch raced a gray fault, and waiting out
        the checkpoint would turn a salvageable read into a deadline race.
        A healthy live set is left to the ordinary checkpoint."""
        pending = self.client.judge.calls[request_id]
        pending.suspicion_event = None
        if not pending.live:
            return  # the overload/failover paths own empty-live re-dispatch
        if not self.client.detector.troubled(pending.live):
            return
        if self._dispatch(pending, reason="suspicion"):
            # The hedge is budget-neutral: it must not consume the policy's
            # retry allowance, or a hedge aimed at a second gray replica
            # would leave the ordinary checkpoint with no retry left.
            pending.retries -= 1
            self.client.detector_hedges.inc()

    def _checkpoint(self, request_id: int) -> None:
        """Periodic no-reply checkpoint while a read is in flight."""
        pending = self.client.judge.calls[request_id]
        pending.retry_event = None
        if self._dispatch(pending, reason="timeout"):
            self._arm_checkpoint(pending)

    def _retries_left(self, pending: PendingCall) -> bool:
        return pending.retries < self.policy.max_retries

    def _arm_checkpoint(self, pending: PendingCall) -> None:
        if not self._retries_left(pending):
            return
        client = self.client
        delay = (pending.t0 + pending.qos.deadline - client.now) * CHECKPOINT_FRACTION
        if delay <= 0.0:
            return
        pending.retry_event = client.sim.schedule(
            delay, self._checkpoint, pending.request.request_id
        )

    # ------------------------------------------------------------------
    # Back-off (DESIGN.md §11) and failover
    # ------------------------------------------------------------------
    def on_overload(
        self, bounce: OverloadReply, pending: Optional[PendingCall]
    ) -> None:
        """A replica shed one of our reads: back off it, and once every live
        target has shed (or died) re-dispatch to a replica that is not
        backing us off — or wake when the earliest back-off ends."""
        until = self.client.now + bounce.retry_after
        if until > self._shed_until.get(bounce.replica, 0.0):
            self._shed_until[bounce.replica] = until
        if pending is None:
            return
        pending.live.discard(bounce.replica)
        if pending.live:
            return  # another selected replica may still answer
        if not self._dispatch(pending, reason="overload"):
            self._schedule_backoff_retry(pending)

    def _schedule_backoff_retry(self, pending: PendingCall) -> None:
        """Arm a retry at the earliest back-off expiry, if the deadline
        budget allows: a bounce does not burn the retry budget at once."""
        if not self._retries_left(pending):
            return
        now = self.client.now
        waits = [t for t in self._shed_until.values() if t > now]
        if not waits:
            return
        wake = min(waits)
        if wake > pending.t0 + pending.qos.deadline - MIN_REMAINING_BUDGET:
            return  # it could not finish in time anyway
        if pending.retry_event is not None:
            pending.retry_event.cancel()
        pending.retry_event = self.client.sim.schedule(
            wake - now, self._checkpoint, pending.request.request_id
        )

    def fail_over(self, gone: set[str], calls: Iterable[PendingCall]) -> None:
        """Evictions of every live selected replica trigger an immediate
        re-dispatch instead of waiting for the no-reply checkpoint."""
        for pending in list(calls):
            if pending.request.kind is not RequestKind.READ:
                continue
            if not (pending.live & gone):
                continue
            pending.live -= gone
            if pending.live:
                continue  # another selected replica may still answer
            if self._dispatch(pending, reason="failover"):
                self.client.failover_redispatches.inc()

    # ------------------------------------------------------------------
    # Re-dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, pending: PendingCall, reason: str) -> bool:
        """Re-issue an open read to the next-best untried replica, if its
        retry and deadline budgets allow; True iff a retry was sent."""
        if not self._retries_left(pending):
            return False
        client = self.client
        now = client.now
        remaining = (pending.t0 + pending.qos.deadline) - now
        if remaining < MIN_REMAINING_BUDGET:
            return False
        # Replicas actively backing us off (OverloadReply.retry_after) are
        # never retried before their back-off elapses.
        exclude = pending.tried | {r for r, t in self._shed_until.items() if t > now}
        target = None
        if client.detector is not None:
            # Route around suspects while an unsuspected candidate remains:
            # a second gray replica would burn the rest of the budget.
            suspects = client.detector.under_suspicion(now)
            if suspects:
                target = self._next_best_replica(
                    pending.qos, exclude | suspects, remaining
                )
        if target is None:
            target = self._next_best_replica(pending.qos, exclude, remaining)
        if target is None:
            return False
        pending.retries += 1
        pending.tried.add(target)
        pending.live.add(target)
        pending.retry_targets.add(target)
        client.retries_sent.inc()
        client.emit_dispatch(pending, target, reason)
        client.gsend(client.groups.qos, target, pending.request)
        client.trace.emit(
            now, "client.retry", client.name,
            request_id=pending.request.request_id, target=target,
            reason=reason, remaining=remaining, attempt=pending.retries,
        )
        return True

    def _next_best_replica(
        self, qos: QoSSpec, exclude: set[str], deadline: float
    ) -> Optional[str]:
        """Rank the candidates of §5.3 by P(response <= remaining budget)
        and return the best one not yet tried (deterministic tie-break)."""
        client = self.client
        predictor = client.predictor
        best_name: Optional[str] = None
        best_score = -1.0
        stale_factor = predictor.staleness_factor(qos.staleness_threshold, client.now)
        for name, primary in client.candidates.roles.items():
            if name in exclude:
                continue
            if primary:
                score = predictor.immediate_cdf(name, deadline)
            else:
                immediate, delayed = predictor.response_cdfs(name, deadline)
                score = stale_factor * immediate + (1.0 - stale_factor) * delayed
            if score > best_score or (
                score == best_score and (best_name is None or name < best_name)
            ):
                best_name = name
                best_score = score
        return best_name
