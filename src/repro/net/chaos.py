"""Seeded chaos campaigns over the network fabric.

The :class:`ChaosEngine` turns the point primitives of
:class:`~repro.net.failures.FailureInjector` — crash/recover, partition/
heal, host overload, lossy links — into a *randomized but reproducible*
fault schedule: every decision (what to break, when, for how long) is drawn
from one ``random.Random`` stream, so a campaign is a pure function of its
seed and the fleet can replay any failing run bit-for-bit.

The engine is deliberately service-agnostic: it knows endpoint *names*
(via :class:`ChaosTargets`), not protocol roles.  Recovery of a crashed
endpoint is delegated to an optional ``repair`` callback so the service
layer can run its own rejoin protocol (state transfer, re-registration);
without one the engine just flips the fabric state back.

Safety constraints keep campaigns *survivable* rather than merely random:

* ``protected`` endpoints are never faulted (keep one serving replica and
  the invariant-checking ground truth alive);
* at most :data:`MAX_CONCURRENT_DOWN` endpoints are crashed at once;
* a crash is skipped when it would leave no live serving primary;
* at most :data:`MAX_CONCURRENT_PARTITIONS` cuts at once (each cut is a
  *named* fabric partition and heals individually, so overlapping cuts
  unwind safely); loss windows may overlap freely — the effective drop
  probability is the max of the active windows.

Beyond the binary faults, a *gray* family models the paper's timing
failures — replicas that stay alive but miss deadlines:

* ``slow_node`` — degrade every link to/from a victim (latency × factor
  plus added jitter);
* ``flapping_link`` — periodically cut and restore a victim's
  connectivity inside one fault window;
* ``oneway_partition`` — an asymmetric cut: the minority's outbound (or
  inbound, coin-flip) traffic is dropped while the reverse flows;
* ``dup_storm`` — duplication/reordering churn on a victim's links.

Every gray injection appends a ground-truth :class:`GrayFault`
(target, start, end, severity) to :attr:`ChaosEngine.gray_schedule`, the
join key for the detection-quality scorer in :mod:`repro.obs.detection`.
All gray weights default to 0.0 so existing campaigns keep their exact
fault schedules.

At ``duration`` the engine stops injecting and heals the world: active
cuts are cleared, degradations and churn removed, the loss probability
restored, and every endpoint it crashed is recovered through the repair
callback.  Everything is recorded in :attr:`ChaosEngine.events` and
traced as ``chaos.*`` for the invariant checkers in
:mod:`repro.experiments.chaos`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.network import LinkChurn, Network
from repro.obs.metrics import MetricsRegistry
from repro.sim.tracing import NULL_TRACE, Trace

#: Fault shapes no campaign varies (DESIGN.md §3): the concurrency caps,
#: and the ``(low, high)`` ranges a crash's downtime, a partition's
#: window, an overload's speed factor, and a loss window's length and
#: drop probability are drawn from, uniformly.
MAX_CONCURRENT_DOWN = 2
MAX_CONCURRENT_PARTITIONS = 2
DOWNTIME = (0.8, 3.0)
PARTITION_WINDOW = (0.5, 2.0)
OVERLOAD_FACTOR = (2.0, 8.0)
LOSS_WINDOW = (0.5, 2.0)
LOSS_PROBABILITY = (0.02, 0.15)


@dataclass(frozen=True)
class ChaosTargets:
    """The endpoints a campaign may fault, by (service-assigned) role.

    ``primaries`` are the serving primaries — the engine guarantees at
    least one stays live.  ``sequencer`` and ``membership`` are optional
    singletons; crashing them exercises failover and detector-outage
    paths.  ``protected`` names are never faulted regardless of which
    other field lists them.
    """

    primaries: tuple[str, ...]
    secondaries: tuple[str, ...] = ()
    sequencer: Optional[str] = None
    membership: Optional[str] = None
    protected: tuple[str, ...] = ()

    def crashable(self) -> list[str]:
        names = list(self.primaries) + list(self.secondaries)
        if self.sequencer is not None:
            names.append(self.sequencer)
        return [n for n in names if n not in self.protected]


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one campaign: intensity, fault mix, and window sizes."""

    duration: float = 30.0
    mean_interval: float = 1.5  # exponential gap between injections
    crash_weight: float = 4.0
    partition_weight: float = 1.0
    overload_weight: float = 2.0
    loss_weight: float = 1.0
    membership_outage_weight: float = 0.0
    # Traffic bursts: requires a rate controller shared with the workload
    # generators (see ChaosEngine's ``rate_controller``); default-off so
    # existing campaigns keep their exact fault schedules.
    load_storm_weight: float = 0.0
    # Gray-fault family (timing failures): all default-off for the same
    # reason — a zero weight never enters the choice distribution, so
    # existing seeds replay bit-identically.
    slow_node_weight: float = 0.0
    flapping_link_weight: float = 0.0
    oneway_partition_weight: float = 0.0
    dup_storm_weight: float = 0.0
    overload_window: tuple[float, float] = (0.5, 2.0)
    storm_window: tuple[float, float] = (1.0, 3.0)
    storm_factor: tuple[float, float] = (3.0, 10.0)
    slow_window: tuple[float, float] = (1.0, 3.0)
    slow_factor: tuple[float, float] = (2.0, 6.0)
    slow_jitter: tuple[float, float] = (0.01, 0.05)
    flap_window: tuple[float, float] = (1.0, 2.5)
    flap_period: tuple[float, float] = (0.08, 0.3)
    dup_window: tuple[float, float] = (0.5, 2.0)
    dup_probability: tuple[float, float] = (0.1, 0.4)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("campaign duration must be positive")
        if self.mean_interval <= 0:
            raise ValueError("mean_interval must be positive")
        for name in (
            "crash_weight",
            "partition_weight",
            "overload_weight",
            "loss_weight",
            "membership_outage_weight",
            "load_storm_weight",
            "slow_node_weight",
            "flapping_link_weight",
            "oneway_partition_weight",
            "dup_storm_weight",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in (
            "overload_window",
            "storm_window",
            "storm_factor",
            "slow_window",
            "slow_factor",
            "slow_jitter",
            "flap_window",
            "flap_period",
            "dup_window",
            "dup_probability",
        ):
            low, high = getattr(self, name)
            if low <= 0 or high < low:
                raise ValueError(f"invalid {name} range [{low}, {high}]")
        low, high = self.dup_probability
        if high > 1.0:
            raise ValueError(f"dup_probability upper bound {high} exceeds 1")
        if self.slow_factor[0] < 1.0:
            # A factor below 1 would *speed up* the victim; degrade_node
            # rejects it, so fail at config time instead of mid-campaign.
            raise ValueError(
                f"slow_factor lower bound {self.slow_factor[0]} below 1"
            )


@dataclass
class ChaosEvent:
    """One injected fault, for reports and failure forensics."""

    time: float
    kind: str
    target: str
    until: Optional[float] = None
    detail: dict = field(default_factory=dict)


@dataclass
class GrayFault:
    """Ground truth for one gray fault: who was degraded, when, how hard.

    ``end`` starts as the *planned* heal time and is clamped to the
    actual heal time if the campaign ends early.  ``severity`` is
    kind-specific: the latency factor for ``slow_node``, the flap period
    for ``flapping_link``, 1.0 for ``oneway_partition``, the duplication
    probability for ``dup_storm``.  The detection scorer joins suspicion
    transitions against these records by ``target`` and time window.
    """

    kind: str
    target: str
    start: float
    end: float
    severity: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "start": round(self.start, 6),
            "end": round(self.end, 6),
            "severity": round(self.severity, 4),
        }


class ChaosEngine:
    """Drives one seeded fault campaign on a simulated network."""

    def __init__(
        self,
        network: Network,
        targets: ChaosTargets,
        config: Optional[ChaosConfig] = None,
        rng: Optional[random.Random] = None,
        repair: Optional[Callable[[str], None]] = None,
        trace: Trace = NULL_TRACE,
        metrics: Optional[MetricsRegistry] = None,
        rate_controller: Optional[object] = None,
    ) -> None:
        self.network = network
        # Said when the engine is built, not at the first injection, so a
        # campaign's fault-free warm-up runs the code its faulty part runs.
        network.expect_faults()
        self.sim = network.sim
        self.targets = targets
        self.config = config or ChaosConfig()
        self.rng = rng or random.Random(0)
        self.repair = repair
        self.trace = trace
        # Duck-typed (begin_storm/end_storm) so the network layer does not
        # import the workload generators; see ArrivalRateController.
        self.rate_controller = rate_controller
        self.events: list[ChaosEvent] = []
        self.gray_schedule: list[GrayFault] = []
        self._down: set[str] = set()
        self._cuts: set[str] = set()
        self._loss_windows: dict[int, float] = {}
        self._loss_token = 0
        self._storm_active = False
        self._degraded: set[str] = set()
        self._flapping: dict[str, float] = {}  # victim -> window end
        self._flap_cuts: dict[str, str] = {}  # victim -> active cut name
        self._dup_victims: set[str] = set()
        self._base_drop = network.drop_probability
        self._started_at: Optional[float] = None
        self._stopped = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults_injected = self.metrics.counter("chaos_faults_injected")
        self.faults_skipped = self.metrics.counter("chaos_faults_skipped")

    # ------------------------------------------------------------------
    # Campaign lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started_at is not None:
            raise RuntimeError("chaos campaign already started")
        self._started_at = self.sim.now
        self.trace.emit(self.sim.now, "chaos.start", "chaos")
        self.sim.schedule(self._next_gap(), self._tick)
        self.sim.schedule(self.config.duration, self._finish)

    @property
    def finished(self) -> bool:
        return self._stopped

    def _next_gap(self) -> float:
        return self.rng.expovariate(1.0 / self.config.mean_interval)

    def _tick(self) -> None:
        if self._stopped:
            return
        assert self._started_at is not None
        if self.sim.now - self._started_at >= self.config.duration:
            return
        if self._inject():
            self.faults_injected.inc()
        else:
            self.faults_skipped.inc()
        self.sim.schedule(self._next_gap(), self._tick)

    def _finish(self) -> None:
        """Stop injecting and heal the world (end of campaign)."""
        if self._stopped:
            return
        self._stopped = True
        for name in sorted(self._cuts):
            self._heal_cut(name)
        for token in sorted(self._loss_windows):
            self._end_loss(token)
        if self._storm_active:
            self._end_storm()
        for victim in sorted(self._degraded):
            self._end_slow_node(victim)
        for victim in sorted(self._flapping):
            self._end_flap(victim)
        for victim in sorted(self._dup_victims):
            self._end_dup_storm(victim)
        for name in sorted(self._down):
            self._recover(name)
        # Clamp ground-truth windows that out-lived the campaign.
        for fault in self.gray_schedule:
            if fault.end > self.sim.now:
                fault.end = self.sim.now
        self.trace.emit(
            self.sim.now, "chaos.end", "chaos",
            injected=self.faults_injected.value,
            skipped=self.faults_skipped.value,
        )

    # ------------------------------------------------------------------
    # Fault selection and injection
    # ------------------------------------------------------------------
    def _inject(self) -> bool:
        cfg = self.config
        choices: list[tuple[str, float]] = [
            ("crash", cfg.crash_weight),
            ("partition", cfg.partition_weight),
            ("overload", cfg.overload_weight),
            ("loss", cfg.loss_weight),
        ]
        if self.targets.membership is not None:
            choices.append(("membership", cfg.membership_outage_weight))
        if self.rate_controller is not None:
            choices.append(("load_storm", cfg.load_storm_weight))
        choices.extend(
            [
                ("slow_node", cfg.slow_node_weight),
                ("flapping_link", cfg.flapping_link_weight),
                ("oneway_partition", cfg.oneway_partition_weight),
                ("dup_storm", cfg.dup_storm_weight),
            ]
        )
        kinds = [k for k, w in choices if w > 0]
        weights = [w for _, w in choices if w > 0]
        if not kinds:
            return False
        kind = self.rng.choices(kinds, weights=weights, k=1)[0]
        return {
            "crash": self._inject_crash,
            "partition": self._inject_partition,
            "overload": self._inject_overload,
            "loss": self._inject_loss,
            "membership": self._inject_membership_outage,
            "load_storm": self._inject_load_storm,
            "slow_node": self._inject_slow_node,
            "flapping_link": self._inject_flapping_link,
            "oneway_partition": self._inject_oneway_partition,
            "dup_storm": self._inject_dup_storm,
        }[kind]()

    def _record(self, event: ChaosEvent) -> None:
        self.events.append(event)
        self.trace.emit(
            event.time, f"chaos.{event.kind}", event.target,
            until=event.until, **event.detail,
        )

    def _live_primary_count(self) -> int:
        return sum(
            1 for name in self.targets.primaries if self.network.is_up(name)
        )

    def _crash_candidates(self) -> list[str]:
        if len(self._down) >= MAX_CONCURRENT_DOWN:
            return []
        candidates = []
        for name in self.targets.crashable():
            if name in self._down or not self.network.is_up(name):
                continue
            if name in self.targets.primaries and self._live_primary_count() <= 1:
                continue  # never kill the last serving primary
            candidates.append(name)
        return candidates

    def _inject_crash(self) -> bool:
        candidates = self._crash_candidates()
        if not candidates:
            return False
        victim = self.rng.choice(candidates)
        if not self.network.crash(victim):
            return False
        self._down.add(victim)
        downtime = self.rng.uniform(*DOWNTIME)
        self._record(
            ChaosEvent(self.sim.now, "crash", victim, until=self.sim.now + downtime)
        )
        self.sim.schedule(downtime, self._recover, victim)
        return True

    def _recover(self, name: str) -> None:
        if name not in self._down:
            return
        self._down.discard(name)
        self._record(ChaosEvent(self.sim.now, "recover", name))
        if self.repair is not None:
            self.repair(name)
        else:
            self.network.recover(name)

    def _pick_minority(self) -> Optional[tuple[set[str], list[str]]]:
        """A small minority of unprotected replicas vs the rest of the world
        (including the membership service, so heartbeat loss and eviction
        are part of the exercised behaviour)."""
        pool = [n for n in self.targets.crashable() if n not in self._down]
        if len(pool) < 2:
            return None
        size = self.rng.randint(1, max(1, len(pool) // 3))
        minority = set(self.rng.sample(pool, size))
        majority = [e for e in self.network.endpoints() if e not in minority]
        return minority, majority

    def _inject_partition(self) -> bool:
        if len(self._cuts) >= MAX_CONCURRENT_PARTITIONS:
            return False
        picked = self._pick_minority()
        if picked is None:
            return False
        minority, majority = picked
        name = self.network.partition(sorted(minority), majority)
        self._cuts.add(name)
        window = self.rng.uniform(*PARTITION_WINDOW)
        self._record(
            ChaosEvent(
                self.sim.now, "partition", "+".join(sorted(minority)),
                until=self.sim.now + window,
                detail={"minority": sorted(minority), "cut": name},
            )
        )
        self.sim.schedule(window, self._heal_cut, name)
        return True

    def _heal_cut(self, name: str) -> None:
        if name not in self._cuts:
            return
        self._cuts.discard(name)
        self.network.heal_partition(name)
        self._record(
            ChaosEvent(self.sim.now, "heal", "network", detail={"cut": name})
        )

    def _inject_overload(self) -> bool:
        pool = [
            n
            for n in (*self.targets.primaries, *self.targets.secondaries)
            if n not in self.targets.protected
            and self.network.host_of(n) is not None
        ]
        if not pool:
            return False
        victim = self.rng.choice(pool)
        host = self.network.host_of(victim)
        assert host is not None
        factor = self.rng.uniform(*OVERLOAD_FACTOR)
        window = self.rng.uniform(*self.config.overload_window)
        host.begin_overload(factor)
        self.sim.schedule(window, host.end_overload)
        self._record(
            ChaosEvent(
                self.sim.now, "overload", victim,
                until=self.sim.now + window, detail={"factor": round(factor, 2)},
            )
        )
        return True

    def _inject_loss(self) -> bool:
        probability = self.rng.uniform(*LOSS_PROBABILITY)
        window = self.rng.uniform(*LOSS_WINDOW)
        token = self._loss_token
        self._loss_token += 1
        self._loss_windows[token] = probability
        self._apply_loss()
        self.sim.schedule(window, self._end_loss, token)
        self._record(
            ChaosEvent(
                self.sim.now, "loss", "network",
                until=self.sim.now + window,
                detail={"probability": round(probability, 4)},
            )
        )
        return True

    def _apply_loss(self) -> None:
        """Overlapping loss windows compose as the max drop probability."""
        if self._loss_windows:
            self.network.drop_probability = max(
                self._base_drop, *self._loss_windows.values()
            )
        else:
            self.network.drop_probability = self._base_drop

    def _end_loss(self, token: int) -> None:
        if self._loss_windows.pop(token, None) is None:
            return
        self._apply_loss()
        self._record(ChaosEvent(self.sim.now, "loss-end", "network"))

    def _inject_load_storm(self) -> bool:
        if self.rate_controller is None or self._storm_active:
            return False
        factor = self.rng.uniform(*self.config.storm_factor)
        window = self.rng.uniform(*self.config.storm_window)
        self._storm_active = True
        self.rate_controller.begin_storm(factor)
        self.sim.schedule(window, self._end_storm)
        self._record(
            ChaosEvent(
                self.sim.now, "load-storm", "workload",
                until=self.sim.now + window, detail={"factor": round(factor, 2)},
            )
        )
        return True

    def _end_storm(self) -> None:
        if not self._storm_active:
            return
        self._storm_active = False
        assert self.rate_controller is not None
        self.rate_controller.end_storm()
        self._record(ChaosEvent(self.sim.now, "storm-end", "workload"))

    def _inject_membership_outage(self) -> bool:
        name = self.targets.membership
        if name is None or name in self._down:
            return False
        if len(self._down) >= MAX_CONCURRENT_DOWN:
            return False
        if not self.network.crash(name):
            return False
        self._down.add(name)
        downtime = self.rng.uniform(*DOWNTIME)
        self._record(
            ChaosEvent(
                self.sim.now, "membership-outage", name,
                until=self.sim.now + downtime,
            )
        )
        self.sim.schedule(downtime, self._recover, name)
        return True

    # ------------------------------------------------------------------
    # Gray faults: alive but slow (the paper's timing-failure regime)
    # ------------------------------------------------------------------
    def _serving_pool(self, busy: set[str]) -> list[str]:
        """Serving replicas a gray fault may hit: not protected, not
        crashed, not already carrying the same gray fault kind."""
        return [
            n
            for n in (*self.targets.primaries, *self.targets.secondaries)
            if n not in self.targets.protected
            and n not in self._down
            and n not in busy
            and self.network.is_up(n)
        ]

    def _gray_fault(
        self, kind: str, target: str, window: float, severity: float
    ) -> GrayFault:
        fault = GrayFault(
            kind, target, self.sim.now, self.sim.now + window, severity
        )
        self.gray_schedule.append(fault)
        return fault

    def _inject_slow_node(self) -> bool:
        pool = self._serving_pool(self._degraded)
        if not pool:
            return False
        victim = self.rng.choice(pool)
        factor = self.rng.uniform(*self.config.slow_factor)
        jitter = self.rng.uniform(*self.config.slow_jitter)
        window = self.rng.uniform(*self.config.slow_window)
        self._degraded.add(victim)
        self.network.degrade_node(victim, factor, jitter)
        self._gray_fault("slow_node", victim, window, factor)
        self._record(
            ChaosEvent(
                self.sim.now, "slow-node", victim,
                until=self.sim.now + window,
                detail={"factor": round(factor, 2), "jitter": round(jitter, 4)},
            )
        )
        self.sim.schedule(window, self._end_slow_node, victim)
        return True

    def _end_slow_node(self, victim: str) -> None:
        if victim not in self._degraded:
            return
        self._degraded.discard(victim)
        self.network.restore_node(victim)
        self._record(ChaosEvent(self.sim.now, "slow-node-end", victim))

    def _inject_flapping_link(self) -> bool:
        pool = self._serving_pool(set(self._flapping))
        if not pool:
            return False
        victim = self.rng.choice(pool)
        window = self.rng.uniform(*self.config.flap_window)
        period = self.rng.uniform(*self.config.flap_period)
        self._flapping[victim] = self.sim.now + window
        self._gray_fault("flapping_link", victim, window, period)
        self._record(
            ChaosEvent(
                self.sim.now, "flapping-link", victim,
                until=self.sim.now + window,
                detail={"period": round(period, 3)},
            )
        )
        self._flap_toggle(victim, period)
        return True

    def _flap_toggle(self, victim: str, period: float) -> None:
        """Alternate the victim between cut-off and connected every half
        period until its window expires."""
        until = self._flapping.get(victim)
        if until is None:
            return
        if self.sim.now >= until:
            self._end_flap(victim)
            return
        cut = self._flap_cuts.pop(victim, None)
        if cut is not None:
            self.network.heal_partition(cut)
        else:
            others = [e for e in self.network.endpoints() if e != victim]
            self._flap_cuts[victim] = self.network.partition(
                [victim], others, name=f"flap:{victim}:{self.sim.now:.4f}"
            )
        self.sim.schedule(period / 2.0, self._flap_toggle, victim, period)

    def _end_flap(self, victim: str) -> None:
        if self._flapping.pop(victim, None) is None:
            return
        cut = self._flap_cuts.pop(victim, None)
        if cut is not None:
            self.network.heal_partition(cut)
        self._record(ChaosEvent(self.sim.now, "flapping-link-end", victim))

    def _inject_oneway_partition(self) -> bool:
        if len(self._cuts) >= MAX_CONCURRENT_PARTITIONS:
            return False
        picked = self._pick_minority()
        if picked is None:
            return False
        minority, majority = picked
        # Coin-flip the blocked direction: the minority's outbound traffic
        # (requests vanish, replies still arrive) or its inbound traffic.
        outbound = self.rng.random() < 0.5
        if outbound:
            name = self.network.partition(
                sorted(minority), majority, symmetric=False
            )
        else:
            name = self.network.partition(
                majority, sorted(minority), symmetric=False
            )
        self._cuts.add(name)
        window = self.rng.uniform(*PARTITION_WINDOW)
        for member in sorted(minority):
            self._gray_fault("oneway_partition", member, window, 1.0)
        self._record(
            ChaosEvent(
                self.sim.now, "oneway-partition", "+".join(sorted(minority)),
                until=self.sim.now + window,
                detail={
                    "minority": sorted(minority),
                    "cut": name,
                    "blocked": "outbound" if outbound else "inbound",
                },
            )
        )
        self.sim.schedule(window, self._heal_cut, name)
        return True

    def _inject_dup_storm(self) -> bool:
        pool = self._serving_pool(self._dup_victims)
        if not pool:
            return False
        victim = self.rng.choice(pool)
        probability = self.rng.uniform(*self.config.dup_probability)
        window = self.rng.uniform(*self.config.dup_window)
        churn = LinkChurn(
            duplicate_probability=probability,
            reorder_probability=probability,
        )
        self._dup_victims.add(victim)
        self.network.set_churn("*", victim, churn)
        self.network.set_churn(victim, "*", churn)
        self._gray_fault("dup_storm", victim, window, probability)
        self._record(
            ChaosEvent(
                self.sim.now, "dup-storm", victim,
                until=self.sim.now + window,
                detail={"probability": round(probability, 3)},
            )
        )
        self.sim.schedule(window, self._end_dup_storm, victim)
        return True

    def _end_dup_storm(self, victim: str) -> None:
        if victim not in self._dup_victims:
            return
        self._dup_victims.discard(victim)
        self.network.clear_churn("*", victim)
        self.network.clear_churn(victim, "*")
        self._record(ChaosEvent(self.sim.now, "dup-storm-end", victim))
