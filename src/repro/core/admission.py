"""Admission control (the Conclusions' first proposed extension).

The paper: "Since we provide probabilistic temporal guarantees, we
currently admit all the clients and inform a client if the observed
failure probability exceeds the client's expectations after the failures
have been detected.  However, with some modifications, we can also use our
framework to perform admission control, in order to determine the clients
that can be admitted based on the current availability of the replicas."

This module makes those modifications.  An :class:`AdmissionController`
evaluates a prospective client's QoS against the *same* probabilistic
models the selection algorithm uses — the replicas' response-time
distributions and the secondary group's staleness factor, taken from a
reference repository (any admitted client's, or a dedicated monitor's) —
plus a load model for the extra requests the new client would add:

1. **Feasibility**: with every available replica selected, is the
   predicted ``P_K(d)`` (single-failure-tolerant, like Algorithm 1) at
   least the requested ``P_c(d)``?  If the pool cannot meet the QoS even
   using everything, the client is rejected outright.
2. **Capacity**: each admitted client consumes replica-time.  The
   controller tracks the admitted clients' expected read/update service
   demand (from their QoS + declared request rate) and rejects a client
   whose addition would push expected utilization of the serving replicas
   past a configurable bound (queueing would then invalidate the very
   distributions the guarantee rests on).

The controller is advisory — it owns no sockets and mutates nothing, and
the service does not consult it: ``ReplicatedService.create_client`` admits
every client.  A caller asks it before creating one, through
:func:`evaluate_against_client`, as ``examples/admission_and_priority.py``
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.prediction import ResponseTimePredictor
from repro.core.qos import QoSSpec
from repro.core.selection import ReplicaView, _PkAccumulator, sort_candidates


@dataclass(frozen=True)
class ClientProfile:
    """What a prospective client declares at admission time."""

    name: str
    qos: QoSSpec
    read_rate: float  # expected read requests per second
    update_rate: float = 0.0  # expected update requests per second

    def __post_init__(self) -> None:
        if self.read_rate < 0 or self.update_rate < 0:
            raise ValueError("request rates must be non-negative")


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict, with the evidence behind it."""

    admitted: bool
    reason: str
    achievable_probability: float  # best P_K(d) the pool can offer
    projected_utilization: float  # serving-replica utilization if admitted


@dataclass
class AdmissionConfig:
    """Tuning knobs for the controller."""

    max_utilization: float = 0.7  # keep queues in the regime the model saw
    mean_read_service_time: float = 0.1  # seconds, from the service config
    mean_update_service_time: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.max_utilization <= 1.0:
            raise ValueError(
                f"max utilization must be in (0, 1], got {self.max_utilization!r}"
            )
        if self.mean_read_service_time <= 0 or self.mean_update_service_time <= 0:
            raise ValueError("mean service times must be positive")


class AdmissionController:
    """Decides whether a client's QoS can be honoured right now."""

    def __init__(self, config: Optional[AdmissionConfig] = None) -> None:
        self.config = config or AdmissionConfig()
        self.admitted: dict[str, ClientProfile] = {}
        self.rejections: list[tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Feasibility: can the pool meet the QoS at all?
    # ------------------------------------------------------------------
    def achievable_probability(
        self,
        candidates: list[ReplicaView],
        qos: QoSSpec,
        stale_factor: float,
    ) -> float:
        """Best single-failure-tolerant ``P_K(d)`` using every candidate.

        Mirrors Algorithm 1's accounting: the candidate with the highest
        immediate CDF is excluded from the product (it plays the crash
        victim), everything else is included.
        """
        if not candidates:
            return 0.0
        ordered = sort_candidates(candidates)
        best = max(ordered, key=lambda r: r.immediate_cdf)
        acc = _PkAccumulator(stale_factor)
        for replica in ordered:
            if replica is not best:
                acc.include(replica)
        return acc.probability()

    # ------------------------------------------------------------------
    # Capacity: would the added load invalidate the model?
    # ------------------------------------------------------------------
    def projected_utilization(
        self,
        prospective: ClientProfile,
        serving_replicas: int,
        avg_replicas_per_read: float,
        num_primaries: int,
    ) -> float:
        """Expected serving-replica utilization with ``prospective`` added.

        Reads land on ``avg_replicas_per_read`` of the ``serving_replicas``
        (Algorithm 1 replicates each read); updates execute on every
        serving primary.
        """
        if serving_replicas <= 0:
            return float("inf")
        demand = self._demand(
            list(self.admitted.values()) + [prospective],
            avg_replicas_per_read,
            num_primaries,
        )
        return demand / serving_replicas

    def _demand(
        self,
        profiles: list[ClientProfile],
        avg_replicas_per_read: float,
        num_primaries: int,
    ) -> float:
        """Total expected replica-seconds per second of the given clients."""
        cfg = self.config
        demand = 0.0
        for profile in profiles:
            demand += (
                profile.read_rate
                * cfg.mean_read_service_time
                * max(1.0, avg_replicas_per_read)
            )
            demand += (
                profile.update_rate * cfg.mean_update_service_time * num_primaries
            )
        return demand

    # ------------------------------------------------------------------
    # The decision
    # ------------------------------------------------------------------
    def evaluate(
        self,
        profile: ClientProfile,
        candidates: list[ReplicaView],
        stale_factor: float,
        num_primaries: int,
        avg_replicas_per_read: Optional[float] = None,
    ) -> AdmissionDecision:
        """Evaluate (without recording) whether ``profile`` can be admitted."""
        if not candidates:
            # An empty replica pool can serve nobody; reject explicitly
            # rather than letting the capacity arithmetic divide by zero.
            return AdmissionDecision(
                admitted=False,
                reason="no serving replicas available",
                achievable_probability=0.0,
                projected_utilization=float("inf"),
            )
        achievable = self.achievable_probability(
            candidates, profile.qos, stale_factor
        )
        if avg_replicas_per_read is None:
            # Conservative default: assume each read consumes two replicas
            # (the seed member plus one — the minimum Algorithm 1 selects).
            avg_replicas_per_read = 2.0
        utilization = self.projected_utilization(
            profile, len(candidates), avg_replicas_per_read, num_primaries
        )
        if achievable < profile.qos.min_probability:
            return AdmissionDecision(
                admitted=False,
                reason=(
                    f"pool cannot reach P_c={profile.qos.min_probability:.2f} "
                    f"(best achievable {achievable:.3f})"
                ),
                achievable_probability=achievable,
                projected_utilization=utilization,
            )
        if utilization > self.config.max_utilization:
            return AdmissionDecision(
                admitted=False,
                reason=(
                    f"projected utilization {utilization:.2f} exceeds bound "
                    f"{self.config.max_utilization:.2f}"
                ),
                achievable_probability=achievable,
                projected_utilization=utilization,
            )
        return AdmissionDecision(
            admitted=True,
            reason="feasible within capacity",
            achievable_probability=achievable,
            projected_utilization=utilization,
        )

    def admit(self, profile: ClientProfile, decision: AdmissionDecision) -> None:
        """Record an admitted client (call after a positive ``evaluate``)."""
        if not decision.admitted:
            raise ValueError(f"cannot record a rejected client {profile.name!r}")
        self.admitted[profile.name] = profile

    def reject(self, profile: ClientProfile, decision: AdmissionDecision) -> None:
        self.rejections.append((profile.name, decision.reason))


def evaluate_against_client(
    controller: AdmissionController,
    profile: ClientProfile,
    reference_predictor: ResponseTimePredictor,
    primary_names: list[str],
    secondary_names: list[str],
    now: float,
) -> AdmissionDecision:
    """Convenience: build the candidate views from a live predictor.

    ``reference_predictor`` is typically an already-admitted client's
    (its repository holds the performance broadcasts every client sees).
    """
    candidates: list[ReplicaView] = []
    deadline = profile.qos.deadline
    for name in primary_names:
        cdf = reference_predictor.immediate_cdf(name, deadline)
        candidates.append(ReplicaView(name, True, cdf, cdf, ert=0.0))
    for name in secondary_names:
        immediate, delayed = reference_predictor.response_cdfs(name, deadline)
        candidates.append(ReplicaView(name, False, immediate, delayed, ert=0.0))
    stale_factor = reference_predictor.staleness_factor(
        profile.qos.staleness_threshold, now
    )
    return controller.evaluate(
        profile, candidates, stale_factor, num_primaries=len(primary_names)
    )
