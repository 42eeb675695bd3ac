"""The network fabric: endpoints, unicast/multicast, loss, partitions.

The fabric delivers messages between named :class:`Endpoint` objects with a
sampled one-way latency.  It implements the failure semantics the upper
layers need:

* **crashed endpoints** neither send nor receive (a crash while a message
  is in flight loses the message — delivery is re-checked at arrival time);
* **partitions** are *named, individually healable cuts*, optionally
  asymmetric (one-way: traffic ``side_a -> side_b`` blocked while the
  reverse direction flows) — messages across an active cut are dropped;
* an optional uniform **drop probability** models lossy links (the group
  layer adds reliability on top, as Ensemble does);
* **gray degradation**: a node or directed link can be degraded — latency
  multiplied and jitter added via :meth:`Network.latency_for` — so the
  target stays alive but slow, the paper's timing-failure regime;
* **link churn**: per-pair duplication/reordering knobs
  (:class:`LinkChurn`) deliver some messages twice or late, exercising
  the protocol's idempotency guards.

Per-pair latency overrides allow heterogeneous topologies (slow hosts/links,
as the paper's 300 MHz–1 GHz testbed had).

The per-message path is kept short: a directed link is resolved once into
its ``(rng stream, latency model)`` *route* and reused until the topology or
a degradation changes, and the crash, cut, loss and churn checks are skipped
while the fabric's own state says none is configured.  None of this may
change which RNG stream is drawn from, or in which order.

The fabric also knows whether it has ever been anything but perfect:
:attr:`Network.fault_free` holds until the first fault is configured or a
fault injector is built on it, and :meth:`Network.on_first_fault` tells a
layer that skipped work on the strength of it, before that fault applies.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from typing import Any, Callable, Iterable, Optional

from repro.net.latency import DegradedLatency, LatencyModel
from repro.net.message import Message
from repro.net.node import Host
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.tracing import NULL_TRACE, Trace


class NetworkError(RuntimeError):
    """Raised for fabric misuse (unknown endpoint, duplicate attach, ...)."""


@dataclass(frozen=True, slots=True)
class PartitionCut:
    """One named cut.  ``symmetric=False`` blocks only ``side_a -> side_b``."""

    name: str
    side_a: frozenset[str]
    side_b: frozenset[str]
    symmetric: bool = True

    def blocks(self, sender: str, recipient: str) -> bool:
        if sender in self.side_a and recipient in self.side_b:
            return True
        return (
            self.symmetric
            and sender in self.side_b
            and recipient in self.side_a
        )


@dataclass(frozen=True, slots=True)
class LinkChurn:
    """Duplication/reordering knobs for a (possibly wildcard) directed pair.

    ``duplicate_probability`` delivers a second copy of the message after
    an extra delay drawn from ``extra_delay``; ``reorder_probability``
    adds that extra delay to the *original* delivery, letting later sends
    overtake it.  Both are sampled from a dedicated ``net.churn`` stream,
    consumed only while churn is configured, so the fabric's RNG schedule
    is untouched when the knobs are off.
    """

    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    extra_delay: tuple[float, float] = (0.0005, 0.01)

    def __post_init__(self) -> None:
        for name in ("duplicate_probability", "reorder_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} {p!r} outside [0, 1]")
        low, high = self.extra_delay
        if low < 0 or high < low:
            raise ValueError(f"invalid extra_delay range [{low}, {high}]")


class Endpoint:
    """A named participant attached to a :class:`Network`.

    Subclasses override :meth:`deliver`.  ``send``/``multicast`` are
    convenience wrappers that go through the fabric.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("endpoint name must be non-empty")
        self.name = name
        self.network: Optional[Network] = None
        self.host: Optional[Host] = None
        self._sim: Optional[Simulator] = None

    # -- wiring --------------------------------------------------------
    def attached(self, network: "Network", host: Optional[Host]) -> None:
        """Called by the fabric on attach; override for setup hooks."""
        self.network = network
        self.host = host
        self._sim = network.sim

    @property
    def sim(self) -> Simulator:
        if self._sim is None:
            raise NetworkError(f"endpoint {self.name!r} is not attached")
        return self._sim

    @property
    def now(self) -> float:
        # Read per message: the clock itself, in one frame.
        sim = self._sim
        if sim is None:
            raise NetworkError(f"endpoint {self.name!r} is not attached")
        return sim._now

    # -- messaging -----------------------------------------------------
    def send(self, recipient: str, payload: Any, size_bytes: int = 256) -> Message:
        if self.network is None:
            raise NetworkError(f"endpoint {self.name!r} is not attached")
        return self.network.send(self.name, recipient, payload, size_bytes)

    def multicast(
        self, recipients: Iterable[str], payload: Any, size_bytes: int = 256
    ) -> list[Message]:
        if self.network is None:
            raise NetworkError(f"endpoint {self.name!r} is not attached")
        return self.network.multicast(self.name, recipients, payload, size_bytes)

    def deliver(self, message: Message) -> None:
        """Handle an arriving message.  Subclasses must override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Network:
    """Message fabric over a simulator."""

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        default_latency: LatencyModel,
        trace: Trace = NULL_TRACE,
        drop_probability: float = 0.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.default_latency = default_latency
        self.trace = trace
        self._fault_free = True
        self._on_first_fault: list[Callable[[], None]] = []
        self.drop_probability = drop_probability
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._endpoints: dict[str, Endpoint] = {}
        self._hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], LatencyModel] = {}
        self._crashed: set[str] = set()
        self._partitions: dict[str, PartitionCut] = {}
        self._cut_ids = itertools.count(1)
        self._degraded_nodes: dict[str, tuple[float, float]] = {}
        self._degraded_links: dict[tuple[str, str], tuple[float, float]] = {}
        self._churn: dict[tuple[str, str], LinkChurn] = {}
        self._msg_ids = itertools.count(1)
        # The ids of the requests the clients on this fabric issue: numbered
        # per fabric like ``msg_id``, so a seeded run replays its ids (and
        # ``req-<rid>`` span names) in any process.
        self.request_ids = itertools.count(1)
        # Resolved directed links; see _route for what invalidates them.
        self._routes: dict[tuple[str, str], tuple[random.Random, LatencyModel]] = {}
        self.messages_sent = self.metrics.counter("net_messages_sent")
        self.messages_delivered = self.metrics.counter("net_messages_delivered")
        self.messages_dropped = self.metrics.counter("net_messages_dropped")
        self._m_duplicated = self.metrics.counter("net_messages_duplicated")
        self._m_reordered = self.metrics.counter("net_messages_reordered")
        self._h_delivery_delay = self.metrics.histogram(
            "net_delivery_delay_seconds"
        )

    # ------------------------------------------------------------------
    # The fault-free fact
    # ------------------------------------------------------------------
    @property
    def fault_free(self) -> bool:
        """True until the first :meth:`crash`, :meth:`partition`, non-zero
        :attr:`drop_probability`, :meth:`set_churn`, ``degrade_*`` or
        :meth:`detach`, or until a fault injector is built on this fabric.

        While it holds, every message sent between attached endpoints is
        delivered, once, after its link's undisturbed latency.  It never
        becomes true again: healing the last fault does not restore it.
        """
        return self._fault_free

    def on_first_fault(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` once, right before the first fault applies."""
        if not self._fault_free:
            raise NetworkError("the fabric is no longer fault-free")
        self._on_first_fault.append(callback)

    def expect_faults(self) -> None:
        """End the fault-free state (idempotent); fault injectors call this
        when they are built, every fault entry point before it acts."""
        if not self._fault_free:
            return
        self._fault_free = False
        callbacks, self._on_first_fault = self._on_first_fault, []
        for callback in callbacks:
            callback()

    @property
    def drop_probability(self) -> float:
        """Uniform per-message loss probability, in ``[0, 1)``."""
        return self._drop_probability

    @drop_probability.setter
    def drop_probability(self, value: float) -> None:
        if not 0.0 <= value < 1.0:
            raise ValueError(f"drop probability {value!r} outside [0, 1)")
        if value > 0.0:
            self.expect_faults()
        self._drop_probability = value

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, endpoint: Endpoint, host: Optional[Host] = None) -> None:
        if endpoint.name in self._endpoints:
            raise NetworkError(f"endpoint {endpoint.name!r} already attached")
        self._endpoints[endpoint.name] = endpoint
        if host is not None:
            self._hosts[endpoint.name] = host
        endpoint.attached(self, host)

    def detach(self, name: str) -> None:
        self.expect_faults()
        self._endpoints.pop(name, None)
        self._hosts.pop(name, None)
        self._crashed.discard(name)
        self._routes.clear()

    def endpoint(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise NetworkError(f"unknown endpoint {name!r}") from None

    def host_of(self, name: str) -> Optional[Host]:
        return self._hosts.get(name)

    def endpoints(self) -> list[str]:
        return sorted(self._endpoints)

    def set_link(self, sender: str, recipient: str, latency: LatencyModel) -> None:
        """Override latency for the directed pair ``sender -> recipient``.

        Re-wiring a link that someone already judged (a registered
        :meth:`on_first_fault` callback) ends the fault-free state: what
        they skipped was skipped on the strength of the old latency.
        """
        if self._on_first_fault:
            self.expect_faults()
        self._links[(sender, recipient)] = latency
        self._routes.clear()

    def set_symmetric_link(self, a: str, b: str, latency: LatencyModel) -> None:
        self.set_link(a, b, latency)
        self.set_link(b, a, latency)

    def latency_for(self, sender: str, recipient: str) -> LatencyModel:
        base = self._links.get((sender, recipient), self.default_latency)
        if not self._degraded_nodes and not self._degraded_links:
            return base
        factor, jitter = 1.0, 0.0
        for entry in (
            self._degraded_nodes.get(sender),
            self._degraded_nodes.get(recipient),
            self._degraded_links.get((sender, recipient)),
        ):
            if entry is not None:
                factor *= entry[0]
                jitter += entry[1]
        if factor == 1.0 and jitter == 0.0:
            return base
        return DegradedLatency(base, factor, jitter)

    def _route(
        self, sender: str, recipient: str
    ) -> tuple[random.Random, LatencyModel]:
        """Resolve ``sender -> recipient`` once: its RNG stream and latency.

        A cached route also vouches that both ends are attached.  Whatever
        changes an input — ``set_link``, ``degrade_*``/``restore_*`` (and
        so ``clear_degradations``), ``detach`` — clears the table.
        """
        route = (
            self.rng.stream(f"net.link.{sender}->{recipient}"),
            self.latency_for(sender, recipient),
        )
        self._routes[(sender, recipient)] = route
        return route

    # ------------------------------------------------------------------
    # Gray degradation: alive but slow (timing failures, not crashes)
    # ------------------------------------------------------------------
    def degrade_node(
        self, name: str, factor: float = 1.0, jitter_s: float = 0.0
    ) -> None:
        """Slow every message to or from ``name`` (factor × + jitter).

        Degrading a node that is already degraded replaces the previous
        severity.  The endpoint keeps sending and receiving — this is a
        *gray* failure: membership heartbeats still flow, only late.
        """
        if name not in self._endpoints:
            raise NetworkError(f"unknown endpoint {name!r}")
        if factor < 1.0 or jitter_s < 0.0:
            raise ValueError(
                f"invalid degradation factor={factor!r} jitter={jitter_s!r}"
            )
        self.expect_faults()
        self._degraded_nodes[name] = (factor, jitter_s)
        self._routes.clear()
        self.trace.emit(
            self.sim.now, "net.degrade", name,
            factor=round(factor, 3), jitter=round(jitter_s, 5),
        )

    def restore_node(self, name: str) -> bool:
        """Undo :meth:`degrade_node`; returns False if it was not degraded."""
        if self._degraded_nodes.pop(name, None) is None:
            return False
        self._routes.clear()
        self.trace.emit(self.sim.now, "net.restore", name)
        return True

    def degrade_link(
        self, sender: str, recipient: str, factor: float = 1.0,
        jitter_s: float = 0.0,
    ) -> None:
        """Slow the directed link ``sender -> recipient`` only."""
        if factor < 1.0 or jitter_s < 0.0:
            raise ValueError(
                f"invalid degradation factor={factor!r} jitter={jitter_s!r}"
            )
        self.expect_faults()
        self._degraded_links[(sender, recipient)] = (factor, jitter_s)
        self._routes.clear()
        self.trace.emit(
            self.sim.now, "net.degrade-link", f"{sender}->{recipient}",
            factor=round(factor, 3), jitter=round(jitter_s, 5),
        )

    def restore_link(self, sender: str, recipient: str) -> bool:
        if self._degraded_links.pop((sender, recipient), None) is None:
            return False
        self._routes.clear()
        self.trace.emit(
            self.sim.now, "net.restore-link", f"{sender}->{recipient}"
        )
        return True

    def is_degraded(self, name: str) -> bool:
        return name in self._degraded_nodes

    def clear_degradations(self) -> None:
        for name in sorted(self._degraded_nodes):
            self.restore_node(name)
        for sender, recipient in sorted(self._degraded_links):
            self.restore_link(sender, recipient)

    # ------------------------------------------------------------------
    # Link churn: duplication and reordering
    # ------------------------------------------------------------------
    def set_churn(self, sender: str, recipient: str, churn: LinkChurn) -> None:
        """Install duplication/reordering on ``sender -> recipient``.

        Either side may be the wildcard ``"*"``; an exact pair match wins
        over ``(sender, "*")``, which wins over ``("*", recipient)``,
        which wins over ``("*", "*")``.
        """
        self.expect_faults()
        self._churn[(sender, recipient)] = churn

    def clear_churn(
        self, sender: Optional[str] = None, recipient: Optional[str] = None
    ) -> None:
        """Remove one churn entry, or all of them when called bare."""
        if sender is None and recipient is None:
            self._churn.clear()
            return
        self._churn.pop((sender, recipient), None)  # type: ignore[arg-type]

    def _churn_for(self, sender: str, recipient: str) -> Optional[LinkChurn]:
        for key in (
            (sender, recipient),
            (sender, "*"),
            ("*", recipient),
            ("*", "*"),
        ):
            churn = self._churn.get(key)
            if churn is not None:
                return churn
        return None

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def crash(self, name: str) -> bool:
        """Stop ``name`` from sending or receiving until :meth:`recover`.

        Idempotent: crashing an already-crashed endpoint is a no-op (no
        duplicate trace record) and returns ``False``; the first crash
        returns ``True``.  Unknown endpoints raise :class:`NetworkError`.
        """
        if name not in self._endpoints:
            raise NetworkError(f"unknown endpoint {name!r}")
        if name in self._crashed:
            return False
        self.expect_faults()
        self._crashed.add(name)
        self.trace.emit(self.sim.now, "net.crash", name)
        return True

    def recover(self, name: str) -> bool:
        """Let a crashed endpoint send and receive again.

        Idempotent: recovering an endpoint that is already up is a no-op
        (no duplicate trace record) and returns ``False``; a real
        transition returns ``True``.  Unknown endpoints raise
        :class:`NetworkError` — silently "recovering" a name that was
        never attached hid typos in failure scripts.
        """
        if name not in self._endpoints:
            raise NetworkError(f"unknown endpoint {name!r}")
        if name not in self._crashed:
            return False
        self._crashed.discard(name)
        self.trace.emit(self.sim.now, "net.recover", name)
        return True

    def is_up(self, name: str) -> bool:
        return name in self._endpoints and name not in self._crashed

    def partition(
        self,
        side_a: Iterable[str],
        side_b: Iterable[str],
        name: Optional[str] = None,
        symmetric: bool = True,
    ) -> str:
        """Install a named cut and return its name.

        ``symmetric=True`` blocks all traffic between the two sets;
        ``symmetric=False`` blocks only ``side_a -> side_b`` (a one-way
        gray partition: replies and heartbeats still flow back).  Cuts
        are healed individually by :meth:`heal_partition` or wholesale
        by :meth:`heal_partitions`.
        """
        if name is None:
            name = f"cut-{next(self._cut_ids)}"
        if name in self._partitions:
            raise NetworkError(f"partition {name!r} already active")
        cut = PartitionCut(name, frozenset(side_a), frozenset(side_b), symmetric)
        self.expect_faults()
        self._partitions[name] = cut
        self.trace.emit(
            self.sim.now,
            "net.partition",
            "network",
            name=name,
            symmetric=symmetric,
            side_a=sorted(cut.side_a),
            side_b=sorted(cut.side_b),
        )
        return name

    def heal_partition(self, name: str) -> bool:
        """Heal one named cut; returns False if it was not active."""
        if self._partitions.pop(name, None) is None:
            return False
        self.trace.emit(self.sim.now, "net.heal", "network", name=name)
        return True

    def heal_partitions(self) -> None:
        self._partitions.clear()
        self.trace.emit(self.sim.now, "net.heal", "network")

    def active_partitions(self) -> list[str]:
        return sorted(self._partitions)

    def _cut(self, sender: str, recipient: str) -> bool:
        for cut in self._partitions.values():
            if cut.blocks(sender, recipient):
                return True
        return False

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(
        self, sender: str, recipient: str, payload: Any, size_bytes: int = 256
    ) -> Message:
        route = self._routes.get((sender, recipient))
        if route is None and sender not in self._endpoints:
            raise NetworkError(f"unknown sender {sender!r}")
        sim = self.sim
        now = sim.now
        message = Message(
            sender, recipient, payload, now, size_bytes, next(self._msg_ids)
        )
        self.messages_sent.inc()
        if self._crashed and sender in self._crashed:
            self._drop(message, "sender-crashed")
            return message
        if route is None:
            if recipient not in self._endpoints:
                self._drop(message, "unknown-recipient")
                return message
            route = self._route(sender, recipient)
        if self._partitions and self._cut(sender, recipient):
            self._drop(message, "partitioned")
            return message
        if self._drop_probability > 0.0:
            if self.rng.stream("net.loss").random() < self._drop_probability:
                self._drop(message, "random-loss")
                return message
        link_rng, latency = route
        delay = latency.delay(message, link_rng)
        if self._churn:
            churn = self._churn_for(sender, recipient)
            if churn is not None:
                crng = self.rng.stream("net.churn")
                if (
                    churn.reorder_probability > 0.0
                    and crng.random() < churn.reorder_probability
                ):
                    delay += crng.uniform(*churn.extra_delay)
                    self._m_reordered.inc()
                if (
                    churn.duplicate_probability > 0.0
                    and crng.random() < churn.duplicate_probability
                ):
                    self._m_duplicated.inc()
                    sim.schedule(
                        delay + crng.uniform(*churn.extra_delay),
                        self._arrive,
                        message,
                    )
        sim.schedule_at(now + delay, self._arrive, message)
        return message

    def multicast(
        self,
        sender: str,
        recipients: Iterable[str],
        payload: Any,
        size_bytes: int = 256,
    ) -> list[Message]:
        """Independent unicasts to each recipient (excluding the sender)."""
        return [
            self.send(sender, recipient, payload, size_bytes)
            for recipient in recipients
            if recipient != sender
        ]

    def _arrive(self, message: Message) -> None:
        name = message.recipient
        recipient = self._endpoints.get(name)
        if recipient is None or (self._crashed and name in self._crashed):
            self._drop(message, "recipient-down")
            return
        if self._partitions and self._cut(message.sender, name):
            self._drop(message, "partitioned-in-flight")
            return
        now = self.sim.now
        self.messages_delivered.inc()
        self._h_delivery_delay.observe(now - message.sent_at)
        if self.trace.enabled:
            self.trace.emit(
                now,
                "net.deliver",
                name,
                sender=message.sender,
                kind=type(message.payload).__name__,
                msg_id=message.msg_id,
            )
        recipient.deliver(message)

    def _drop(self, message: Message, reason: str) -> None:
        self.messages_dropped.inc()
        self.metrics.counter("net_drops", reason=reason).inc()
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "net.drop",
                message.recipient,
                sender=message.sender,
                kind=type(message.payload).__name__,
                reason=reason,
                msg_id=message.msg_id,
            )
