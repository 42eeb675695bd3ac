"""φ-accrual failure detection for gray failures.

Every binary detector in the stack — the membership service's heartbeat
timeout, the client's per-read deadline timer, the sequential handler's
fixed commit-gap watchdog — answers "is this peer dead?".  The paper's
failure model is *timing* failures: replicas that are alive but too slow
to meet ``P_c(d)``.  This module adds the continuous answer: a per-peer
suspicion level φ computed from the peer's observed inter-arrival
history, after Hayashibara et al.'s φ-accrual detector.

For each peer we keep a sliding window of inter-arrival times of
*any* evidence of life (replies, performance broadcasts, lazy updates —
the caller decides what to feed :meth:`PhiAccrualDetector.record`).  At
query time, with ``t`` seconds elapsed since the last arrival::

    φ(t) = -log10( P(next arrival later than t) )

under a normal fit of the window (σ floored so a near-constant history
does not make φ explode on microscopic delays).  φ ≈ 1 means "this gap
would happen one time in ten"; φ ≥ 8 is a one-in-10⁸ gap.  Because φ is
continuous, one detector serves several policies at different
thresholds: candidate *ejection* before Algorithm-1 at
:data:`PHI_SUSPECT`, earlier *hedging* at :data:`PHI_HEDGE`, and an
adaptive timeout (``mean + k·σ``) for the commit-gap watchdog.  Each
handler that runs a detector owns one subclass holding its policies:
:class:`ClientDetector` (ejection, probes, suspicion hedges) and
:class:`ReplicaDetector` (the adaptive watchdog period and the
gray-publisher watch).

Suspicion is not eviction: a suspected peer is only *deprioritized*,
and :meth:`should_probe` meters occasional probe traffic at it so the
detector keeps observing — one on-time arrival resets φ, re-admits
the peer and starts its inter-arrival history afresh (gray failures
heal; crash-style eviction stays with the membership service).  Every
suspect/clear edge is appended to
:attr:`PhiAccrualDetector.transitions` so the detection-quality scorer
(:mod:`repro.obs.detection`) can join them against the chaos engine's
ground-truth :class:`~repro.net.chaos.GrayFault` schedule.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.requests import PublisherSuspicion
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.sim.tracing import NULL_TRACE, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.client import ClientHandler
    from repro.core.handlers.sequential import SequentialReplicaHandler

# φ is capped so exporters and comparisons never meet inf (a gap many
# sigmas out underflows the erfc tail to exactly 0.0).
PHI_CAP = 40.0


#: Suspicion threshold: a peer whose φ reaches it is latched as suspected
#: (and ejected from Algorithm-1 candidacy by the client).
PHI_SUSPECT = 8.0

#: Client policies: a single-replica read whose target's φ has reached
#: ``PHI_HEDGE`` (below ``PHI_SUSPECT``) is hedged, and ejecting suspects
#: always leaves ``MIN_EJECT_KEEP`` candidates — if suspicion is that
#: widespread the detector stands aside.
PHI_HEDGE = 4.0
MIN_EJECT_KEEP = 1

#: Absolute floor (seconds) on the fitted σ; the effective floor is
#: ``max(MIN_STD, 0.1 × mean)`` so regular traffic does not produce a
#: degenerate distribution.
MIN_STD = 0.005

#: ``k`` in the adaptive timeout ``mean + k·σ``.
WATCHDOG_MULTIPLIER = 6.0

#: Flap damping.  A flapping link alternates cut and connected several
#: times a second; each connected half-period delivers an arrival that
#: clears suspicion, and the freshly re-admitted peer immediately times
#: out the next read.  On every *repeat* suspicion within
#: ``QUARANTINE_MEMORY`` seconds, the clearing arrival re-admits the peer
#: only after a quarantine of ``QUARANTINE_BASE × 2^(repeats − 2)``
#: seconds (capped at ``QUARANTINE_MAX``).  The first suspicion is never
#: quarantined, so a one-off gap still re-admits instantly.
QUARANTINE_BASE = 0.2
QUARANTINE_MAX = 3.0
QUARANTINE_MEMORY = 10.0


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs for one φ-accrual detector instance.

    ``window_size``
        Inter-arrival samples kept per peer.
    ``min_samples``
        Below this many samples a peer is never suspected (cold start).
    ``probe_interval``
        Minimum spacing of probe reads at a suspected peer.
    """

    window_size: int = 64
    min_samples: int = 8
    probe_interval: float = 0.5

    def __post_init__(self) -> None:
        if self.window_size < 2:
            raise ValueError("window_size must be >= 2")
        if self.min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if self.probe_interval <= 0:
            raise ValueError("probe_interval must be positive")


@dataclass(frozen=True, slots=True)
class SuspicionTransition:
    """One suspect/clear edge, the scorer's input."""

    time: float
    peer: str
    phi: float
    suspected: bool


class PhiAccrualDetector:
    """Per-peer continuous suspicion from inter-arrival history."""

    def __init__(
        self,
        config: DetectorConfig,
        owner: str = "",
        metrics: MetricsRegistry = NULL_METRICS,
        trace: Trace = NULL_TRACE,
    ) -> None:
        self.config = config
        self.owner = owner
        self.trace = trace
        self._last: dict[str, float] = {}
        self._windows: dict[str, deque[float]] = {}
        self._suspected: set[str] = set()
        self._last_probe: dict[str, float] = {}
        self._suspect_times: dict[str, deque[float]] = {}
        self._quarantine_until: dict[str, float] = {}
        self.transitions: list[SuspicionTransition] = []
        labels = {"owner": owner} if owner else {}
        self._m_suspects = metrics.counter("detector_suspects", **labels)
        self._m_clears = metrics.counter("detector_clears", **labels)
        self._m_samples = metrics.counter("detector_samples", **labels)

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------
    def record(self, peer: str, now: float) -> None:
        """Feed one arrival of evidence that ``peer`` is alive."""
        last = self._last.get(peer)
        self._last[peer] = now
        if last is None:
            self._windows[peer] = deque(maxlen=self.config.window_size)
            return
        interval = now - last
        if interval <= 0.0:
            return  # same-instant duplicates carry no timing information
        if peer in self._suspected:
            # Re-admission starts the peer's history over (cold again until
            # ``min_samples`` arrive).  The window was fitted to traffic
            # from before the heal — often a burst of replies the fault
            # held back — and a re-admitted peer the client no longer reads
            # from is heard from far less often: judged by the old fit,
            # that quiet reads as a fresh failure, again and again.
            self._windows[peer].clear()
            self._clear(peer, now)
            return
        self._windows[peer].append(interval)
        self._m_samples.inc()

    def forget(self, peer: str) -> None:
        """Drop all state for a peer (it left the replica set for good)."""
        self._last.pop(peer, None)
        self._windows.pop(peer, None)
        self._suspected.discard(peer)
        self._last_probe.pop(peer, None)
        self._suspect_times.pop(peer, None)
        self._quarantine_until.pop(peer, None)

    # ------------------------------------------------------------------
    # Suspicion
    # ------------------------------------------------------------------
    def _fit(self, peer: str) -> Optional[tuple[float, float]]:
        """``(mean, σ)`` of the peer's inter-arrival window, σ floored;
        None for unknown or cold peers."""
        window = self._windows.get(peer)
        if window is None or len(window) < self.config.min_samples:
            return None
        mean = sum(window) / len(window)
        var = sum((x - mean) ** 2 for x in window) / len(window)
        return mean, max(math.sqrt(var), MIN_STD, 0.1 * mean)

    def phi(self, peer: str, now: float) -> float:
        """Current suspicion level; 0.0 for unknown or cold peers."""
        fit = self._fit(peer)
        if fit is None:
            return 0.0
        elapsed = now - self._last[peer]
        if elapsed <= 0.0:
            return 0.0
        mean, std = fit
        # P(next arrival later than elapsed) under Normal(mean, std).
        p_later = 0.5 * math.erfc((elapsed - mean) / (std * math.sqrt(2.0)))
        if p_later <= 0.0:
            return PHI_CAP
        return min(-math.log10(p_later), PHI_CAP)

    def suspicion_check(self, peer: str, now: float) -> float:
        """Compute φ and latch the suspect state on threshold crossing."""
        value = self.phi(peer, now)
        if value >= PHI_SUSPECT and peer not in self._suspected:
            self._suspected.add(peer)
            self._last_probe[peer] = now
            times = self._suspect_times.setdefault(peer, deque(maxlen=16))
            times.append(now)
            self.transitions.append(
                SuspicionTransition(now, peer, value, True)
            )
            self._m_suspects.inc()
            self.trace.emit(
                now, "detector.suspect", self.owner or "detector",
                peer=peer, phi=round(value, 2),
            )
        return value

    def _clear(self, peer: str, now: float) -> None:
        self._suspected.discard(peer)
        self._last_probe.pop(peer, None)
        repeats = sum(
            1
            for t in self._suspect_times.get(peer, ())
            if now - t <= QUARANTINE_MEMORY
        )
        if repeats >= 2:
            # Flap damping: the peer keeps earning suspicion, so one
            # on-time arrival no longer buys instant re-admission.
            hold = min(QUARANTINE_BASE * 2.0 ** (repeats - 2), QUARANTINE_MAX)
            self._quarantine_until[peer] = now + hold
        self.transitions.append(SuspicionTransition(now, peer, 0.0, False))
        self._m_clears.inc()
        self.trace.emit(
            now, "detector.clear", self.owner or "detector", peer=peer
        )

    def is_suspected(self, peer: str, now: Optional[float] = None) -> bool:
        """Latched suspicion, plus flap-damping quarantine when ``now``
        is supplied (quarantine expires by wall time, not by arrival)."""
        if peer in self._suspected:
            return True
        if now is None:
            return False
        return now < self._quarantine_until.get(peer, 0.0)

    def suspected(self) -> list[str]:
        return sorted(self._suspected)

    def under_suspicion(self, now: float) -> set[str]:
        """Peers currently latched *or* quarantined — the set a caller
        should route around when a healthy alternative exists."""
        out = set(self._suspected)
        for peer, until in self._quarantine_until.items():
            if now < until:
                out.add(peer)
        return out

    def should_probe(self, peer: str, now: float) -> bool:
        """Rate-limited permission to aim probe traffic at a suspect.

        Probing is what makes ejection reversible: without it, an
        ejected peer would never produce new arrivals and would stay
        suspected forever.
        """
        if peer not in self._suspected:
            return False
        if now - self._last_probe.get(peer, 0.0) < self.config.probe_interval:
            return False
        self._last_probe[peer] = now
        return True

    # ------------------------------------------------------------------
    # Adaptive timeouts
    # ------------------------------------------------------------------
    def adaptive_timeout(self, peer: str, fallback: float) -> float:
        """``mean + k·σ`` of the peer's inter-arrival history.

        Falls back to ``fallback`` until enough samples exist, and is
        clamped to ``[fallback / 2, 10 × fallback]`` so a pathological
        history cannot disable the watchdog entirely.
        """
        fit = self._fit(peer)
        if fit is None:
            return fallback
        mean, std = fit
        timeout = mean + WATCHDOG_MULTIPLIER * std
        return min(max(timeout, fallback / 2.0), 10.0 * fallback)

    def stats(self) -> dict:
        return {
            "peers": len(self._windows),
            "suspected": self.suspected(),
            "suspects_total": self._m_suspects.value,
            "clears_total": self._m_clears.value,
            "transitions": len(self.transitions),
        }


class ClientDetector(PhiAccrualDetector):
    """A client's detector over its replicas — fed every reply, bounce and
    performance broadcast — and the read path's policies (DESIGN.md §14)."""

    def __init__(self, config: DetectorConfig, client: "ClientHandler") -> None:
        super().__init__(
            config, owner=client.name, metrics=client.metrics, trace=client.trace
        )
        self.client = client

    def eject(self, names: dict[str, bool]) -> dict[str, bool]:
        """Drop φ-suspected candidates before Algorithm 1 runs — unless
        fewer than :data:`MIN_EJECT_KEEP` would survive: a panicking
        detector must not starve selection.  Ejected replicas keep getting
        :meth:`probes`, so one on-time reply re-admits them."""
        now = self.client.now
        healthy: dict[str, bool] = {}
        ejected: list[str] = []
        for name, primary in names.items():
            self.suspicion_check(name, now)
            # is_suspected covers both the latched state (threshold may
            # have been crossed on an earlier check) and the flap-damping
            # quarantine, which outlives the clearing arrival.
            if self.is_suspected(name, now):
                ejected.append(name)
            else:
                healthy[name] = primary
        if not ejected or len(healthy) < MIN_EJECT_KEEP:
            return names
        self.client.detector_ejections.inc(len(ejected))
        self.trace.emit(now, "client.eject", self.owner, ejected=ejected)
        return healthy

    def probes(self, targets: list[str]) -> list[str]:
        """Suspects a read also goes to, rate-limited: without arrivals an
        ejected peer would stay ejected after its gray fault healed."""
        now = self.client.now
        return [
            peer
            for peer in self.suspected()
            if peer not in targets and self.should_probe(peer, now)
        ]

    def alarmed(self, peer: str) -> bool:
        """φ has reached :data:`PHI_HEDGE`: worth a hedge, not yet an
        ejection."""
        return self.phi(peer, self.client.now) >= PHI_HEDGE

    def troubled(self, peers: set[str]) -> bool:
        """Some peer is suspected, quarantined or alarmed."""
        now = self.client.now
        return any(self.is_suspected(p, now) or self.alarmed(p) for p in peers)


class ReplicaDetector(PhiAccrualDetector):
    """A sequential replica's detector over two pseudo-peers:
    ``"gsn-assign"``, sequencer progress, which sizes the commit-gap
    watchdog (:meth:`~repro.core.handlers.catchup.CatchUp.gap_delay`); and
    ``"lazy-publisher"``, the lazy propagation cadence a secondary watches
    for a *gray* publisher — alive in the view, but so slow that every
    deferred read stalls (a crashed one is handled by view changes).
    """

    def __init__(
        self, config: DetectorConfig, handler: "SequentialReplicaHandler"
    ) -> None:
        super().__init__(
            config, owner=handler.name, metrics=handler.metrics, trace=handler.trace
        )
        self.handler = handler
        # Every publisher reported slow since the last primary view change,
        # and the publisher this secondary last reported.
        self.publisher_suspects: set[str] = set()
        self._suspected_publisher: Optional[str] = None

    def start(self) -> None:
        self.handler.sim.schedule(self._check_interval(), self._publisher_check)

    def heard_publisher(self) -> None:
        """A lazy update arrived: fresh evidence, and the episode is over."""
        self.record("lazy-publisher", self.handler.now)
        self._suspected_publisher = None

    def publisher(self, members: tuple[str, ...]) -> Optional[str]:
        """The reassigned publisher: the first member after the leader that
        no report suspects.  None while no report is in, or every such
        member is suspected."""
        if not self.publisher_suspects:
            return None
        suspects = self.publisher_suspects
        return next((m for m in members[1:] if m not in suspects), None)

    def _check_interval(self) -> float:
        # Check a few times per expected lazy interval so a gray
        # publisher is reported within one or two missed propagations.
        return max(self.handler.lazy_update_interval / 2, 0.05)

    def _publisher_check(self) -> None:
        """Secondary-side watch over the lazy publisher's cadence; each
        secondary reports once per suspicion episode."""
        handler = self.handler
        if handler.network is None or not handler.has_joined(handler.groups.secondary):
            return  # a primary never watches the publisher: the chain ends
        if handler.up and handler.is_secondary:
            publisher = handler.lazy_publisher_name
            self.suspicion_check("lazy-publisher", handler.now)
            if publisher is not None and self.is_suspected("lazy-publisher"):
                if self._suspected_publisher != publisher:
                    self._suspected_publisher = publisher
                    handler.publisher_suspicions.inc()
                    self.trace.emit(
                        handler.now, "replica.publisher-suspect", handler.name,
                        publisher=publisher,
                    )
                    handler.gmcast(
                        handler.groups.primary,
                        PublisherSuspicion(suspect=publisher, reporter=handler.name),
                        size_bytes=64,
                    )
            elif not self.is_suspected("lazy-publisher"):
                self._suspected_publisher = None
        handler.sim.schedule(self._check_interval(), self._publisher_check)

    def on_publisher_suspicion(self, sus: PublisherSuspicion) -> None:
        """Primary-side handling of a secondary's gray-publisher report.

        Every primary moves the role to the first member after the leader
        that no report since the last primary view change suspects.  The
        choice depends on the set of reports, not on the order they came
        in, so the group agrees on the new publisher without a coordination
        round; the reassignment lasts until the next primary view change.
        """
        handler = self.handler
        if not handler.is_primary or sus.suspect in self.publisher_suspects:
            return
        before = handler.lazy_publisher_name
        self.publisher_suspects.add(sus.suspect)
        replacement = handler.lazy_publisher_name
        if replacement == before:
            return
        handler.publisher_reassignments.inc()
        self.trace.emit(
            handler.now, "replica.publisher-reassign", handler.name,
            suspect=sus.suspect, publisher=replacement, reporter=sus.reporter,
        )
