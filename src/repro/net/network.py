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

The per-message path is kept short.  Each directed link is one persistent
:class:`Link` record (:meth:`Network.link`): its RNG stream, its latency
model, the draws it owes and a trust verdict the layers above cache on it.
The group layer holds the records of its peers, so a group message looks
nothing up by name but the one :meth:`Network.send` does.  A record is never
replaced, only brought up to date: ``set_link``, ``degrade_node`` and
``restore_node`` re-resolve every record's latency in place, and
:meth:`Network.expect_faults` clears every verdict.  The crash, cut, loss
and churn checks are skipped while the fabric's own state says none is
configured.  None of this may change which RNG stream is drawn from, or in
which order: a message not sent is *kept* (``link.owed += 1``), and its
link's next real draw pays for it.

The fabric also knows whether it can be anything but perfect:
:attr:`Network.fault_free` is fixed for the whole run before the clock
starts.  A fault configured then, or a fault injector built on the fabric,
ends it; once the simulator has fired an event, a fault on a fabric that is
still fault-free is refused.  The layers above skip work only on a link the
fabric trusts (:meth:`Network.trusted`), so they never see a verdict change
under them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from typing import Any, Iterable, Optional

from repro.net.latency import DegradedLatency, LatencyModel
from repro.net.message import Message
from repro.net.node import Host
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.tracing import NULL_TRACE, Trace


#: A link is trusted within a budget only while this margin times its
#: modelled mean delay is inside the budget, so that no message could have
#: come late.  A LAN's ~0.6 ms ack round trip against a 50 ms retransmit
#: timeout is; a WAN's ~100 ms genuinely retransmits and is not.
ACK_ROUND_TRIP_MARGIN = 4.0


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


class Link:
    """One directed link ``sender -> recipient``, resolved once and held.

    ``stream`` and ``latency`` time its messages; ``latency`` is re-resolved
    in place whenever the model in force changes.  ``owed`` counts the
    draws of messages kept rather than sent, paid in bulk just before the
    link's next real draw.  ``verdict`` is the layer above's cached trust
    judgement of the link (the group layer's ack guard), ``None`` until it
    is first asked and again after :meth:`Network.expect_faults`.
    ``reverse`` is the record of the link back.
    """

    __slots__ = (
        "sender", "recipient", "stream", "latency", "owed", "verdict", "reverse",
    )

    def __init__(
        self, sender: str, recipient: str, stream: random.Random,
        latency: LatencyModel,
    ) -> None:
        self.sender = sender
        self.recipient = recipient
        self.stream = stream
        self.latency = latency
        self.owed = 0
        self.verdict: Optional[bool] = None
        self.reverse: Link = self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.sender}->{self.recipient} owed={self.owed}>"


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
        # The fault-free fact, fixed before the first event fires: false
        # once a :meth:`crash`, :meth:`partition`, non-zero
        # :attr:`drop_probability`, :meth:`set_churn` or
        # :meth:`degrade_node` comes before the clock starts, or a fault
        # injector is built on this fabric then.  While it holds, every
        # message sent between attached endpoints is delivered, once, after
        # its link's undisturbed latency.  It never becomes true again:
        # healing the last fault does not restore it.  Only
        # :meth:`expect_faults` writes it.
        self.fault_free = True
        # :meth:`trusted`'s verdicts, by question; cleared with fault_free.
        self._trusted: dict[tuple, bool] = {}
        # Every link record, by (sender, recipient).  A record in _records
        # vouches that both ends are attached; one made before that stays in
        # _dangling, where send's slow path finds it.
        self._records: dict[tuple[str, str], Link] = {}
        self._dangling: dict[tuple[str, str], Link] = {}
        self.drop_probability = drop_probability
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._endpoints: dict[str, Endpoint] = {}
        self._hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], LatencyModel] = {}
        self._crashed: set[str] = set()
        self._partitions: dict[str, PartitionCut] = {}
        self._cut_ids = itertools.count(1)
        self._degraded_nodes: dict[str, tuple[float, float]] = {}
        self._churn: dict[tuple[str, str], LinkChurn] = {}
        self._msg_ids = itertools.count(1)
        # The ids of the requests the clients on this fabric issue: numbered
        # per fabric like ``msg_id``, so a seeded run replays its ids (and
        # ``req-<rid>`` span names) in any process.
        self.request_ids = itertools.count(1)
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
    def expect_faults(self) -> None:
        """End the fault-free state (idempotent); fault injectors call this
        when they are built, every fault entry point before it acts."""
        if self.fault_free:
            self._refuse_once_running("a fault")
            self.fault_free = False
            self._trusted.clear()
            for link in self._every_link():
                link.verdict = None

    def _refuse_once_running(self, what: str) -> None:
        """Raise if the clock has started on a fabric that is fault-free:
        the layers above have judged it so for the rest of the run."""
        if self.fault_free and self.sim.events_processed:
            raise NetworkError(
                f"{what} after the first event on a fault-free fabric: "
                f"call network.expect_faults() before the clock starts"
            )

    def trusted(
        self,
        sender: str,
        recipient: str,
        budget: float,
        size_bytes: int = 256,
        reply_bytes: Optional[int] = None,
        margin: float = ACK_ROUND_TRIP_MARGIN,
    ) -> bool:
        """Whether ``sender -> recipient`` is trusted within ``budget``
        seconds: the fabric is fault-free, ``recipient`` is up, and
        ``margin`` times the modelled mean delay of a ``size_bytes``
        message — plus that of a ``reply_bytes`` reply back, when one is
        named — is inside ``budget``.  On a trusted link nothing can go
        missing or come late, so a layer may skip what guards against it.

        Each verdict is cached until :meth:`expect_faults`.  A
        :meth:`set_link` before the clock starts does not revisit one: both
        ends of a channel must keep the verdict its first message was sent
        under.  A question asked per message is cached on the
        :class:`Link` instead (``Link.verdict``), by the layer that asks it.
        """
        key = (sender, recipient, budget, size_bytes, reply_bytes, margin)
        verdict = self._trusted.get(key)
        if verdict is None:
            verdict = self.fault_free and self.is_up(recipient)
            if verdict:
                delay = self.latency_for(sender, recipient).mean_delay(size_bytes)
                if reply_bytes is not None:
                    delay += self.latency_for(recipient, sender).mean_delay(
                        reply_bytes
                    )
                verdict = margin * delay < budget
            self._trusted[key] = verdict
        return verdict

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

        On a fault-free fabric only before the clock starts: what the layers
        above skip, they skip on the strength of the latency they judged.
        """
        self._refuse_once_running("set_link")
        self.settle_draws()
        self._links[(sender, recipient)] = latency
        self._resolve_latencies()

    def latency_for(self, sender: str, recipient: str) -> LatencyModel:
        base = self._links.get((sender, recipient), self.default_latency)
        if not self._degraded_nodes:
            return base
        factor, jitter = 1.0, 0.0
        for entry in (
            self._degraded_nodes.get(sender),
            self._degraded_nodes.get(recipient),
        ):
            if entry is not None:
                factor *= entry[0]
                jitter += entry[1]
        if factor == 1.0 and jitter == 0.0:
            return base
        return DegradedLatency(base, factor, jitter)

    def link(self, sender: str, recipient: str) -> Link:
        """The one record of ``sender -> recipient``, made on first ask
        together with the record of the link back.  Hold it: it stays
        current for the whole run."""
        key = (sender, recipient)
        link = self._records.get(key) or self._dangling.get(key)
        if link is None:
            link = self._new_link(sender, recipient)
            if recipient != sender:
                back = self._new_link(recipient, sender)
                link.reverse, back.reverse = back, link
        return link

    def _new_link(self, sender: str, recipient: str) -> Link:
        link = Link(
            sender,
            recipient,
            self.rng.stream(f"net.link.{sender}->{recipient}"),
            self.latency_for(sender, recipient),
        )
        endpoints = self._endpoints
        wired = sender in endpoints and recipient in endpoints
        (self._records if wired else self._dangling)[(sender, recipient)] = link
        return link

    def _every_link(self) -> Iterable[Link]:
        return itertools.chain(self._records.values(), self._dangling.values())

    def _resolve_latencies(self) -> None:
        """Bring every record's latency up to the model now in force."""
        for link in self._every_link():
            link.latency = self.latency_for(link.sender, link.recipient)

    def settle_draws(self) -> None:
        """Pay every owed draw with the latency model in force, so that each
        link stream sits where eager drawing would have left it.  Called
        before a link's latency changes; a reader of a stream's state calls
        it too."""
        for link in self._every_link():
            if link.owed:
                link.latency.skip(link.stream, link.owed)
                link.owed = 0

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
        self.settle_draws()
        self._degraded_nodes[name] = (factor, jitter_s)
        self._resolve_latencies()
        self.trace.emit(
            self.sim.now, "net.degrade", name,
            factor=round(factor, 3), jitter=round(jitter_s, 5),
        )

    def restore_node(self, name: str) -> bool:
        """Undo :meth:`degrade_node`; returns False if it was not degraded."""
        self.settle_draws()
        if self._degraded_nodes.pop(name, None) is None:
            return False
        self._resolve_latencies()
        self.trace.emit(self.sim.now, "net.restore", name)
        return True

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
        if sender is None or recipient is None:
            raise ValueError("clear_churn takes both sides of a pair, or neither")
        self._churn.pop((sender, recipient), None)

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
        gray partition: replies and heartbeats still flow back).  Each cut
        is healed by :meth:`heal_partition`.
        """
        self.expect_faults()
        if name is None:
            name = f"cut-{next(self._cut_ids)}"
        if name in self._partitions:
            raise NetworkError(f"partition {name!r} already active")
        cut = PartitionCut(name, frozenset(side_a), frozenset(side_b), symmetric)
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
        link = self._records.get((sender, recipient))
        if link is None and sender not in self._endpoints:
            raise NetworkError(f"unknown sender {sender!r}")
        sim = self.sim
        now = sim._now
        message = Message(
            sender, recipient, payload, now, size_bytes, next(self._msg_ids)
        )
        self.messages_sent.inc()
        if self._crashed and sender in self._crashed:
            self._drop(message, "sender-crashed")
            return message
        if link is None:
            if recipient not in self._endpoints:
                self._drop(message, "unknown-recipient")
                return message
            link = self.link(sender, recipient)
        if self._partitions and self._cut(sender, recipient):
            self._drop(message, "partitioned")
            return message
        if self._drop_probability > 0.0:
            if self.rng.stream("net.loss").random() < self._drop_probability:
                self._drop(message, "random-loss")
                return message
        link_rng, latency = link.stream, link.latency
        if link.owed:
            latency.skip(link_rng, link.owed)
            link.owed = 0
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
        now = self.sim._now
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
