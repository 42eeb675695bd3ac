"""Assembly of a whole replicated service (Figure 1).

:class:`ReplicatedService` wires up the two-level replica organization of
§3 on a simulated network: a primary replication group (sequencer +
serving primaries for the sequential handler; serving primaries only for
FIFO), a secondary replication group, and the QoS group spanning all
replicas and their clients.  It registers everything with the membership
service, installs the initial views synchronously, and hands out
:class:`~repro.core.client.ClientHandler` instances via
:meth:`create_client`.

:func:`build_testbed` creates the full stack (simulator, RNG registry,
network, membership, service) in one call — the entry point the examples
and the experiment harness both use.

Every parameter comes from one :class:`~repro.core.config.ServiceConfig`
(re-exported here): the handlers and the membership detector's config
are built from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.client import ClientHandler, RetryPolicy
# Re-exported: callers import the config from here.
from repro.core.config import ServiceConfig, default_service_time
from repro.core.controller import ConsistencyController
from repro.core.handlers import client_handler_for, replica_handler_for
from repro.core.overload import DegradationPolicy
from repro.core.qos import QoSSpec
from repro.core.replica import ReplicaHandlerBase, ServiceGroups
from repro.core.selection import SelectionStrategy
from repro.core.staleness import StalenessModel
from repro.core.state import CounterObject, ReplicatedObject
from repro.groups.membership import MembershipService
from repro.net.latency import LanLatency, LatencyModel
from repro.obs.calibration import CalibrationTracker
from repro.obs.metrics import MetricsRegistry
from repro.net.network import Network
from repro.net.node import Host
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.tracing import NULL_TRACE, Trace


class ReplicatedService:
    """One replicated service: replicas, groups, and client factory."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        membership: MembershipService,
        rng: RngRegistry,
        config: Optional[ServiceConfig] = None,
        app_factory: Callable[[], ReplicatedObject] = CounterObject,
        trace: Trace = NULL_TRACE,
        metrics: Optional[MetricsRegistry] = None,
        calibration: Optional[CalibrationTracker] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.membership = membership
        self.rng = rng
        self.config = config or ServiceConfig()
        self.app_factory = app_factory
        self.trace = trace
        # One registry shared by every replica and client of the service;
        # snapshots therefore describe the whole deployment.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.calibration = calibration
        self.groups = ServiceGroups(self.config.name)
        self.clients: dict[str, ClientHandler] = {}
        self.controller: Optional[ConsistencyController] = None

        self.sequencer: Optional[ReplicaHandlerBase] = None
        self.primaries: list[ReplicaHandlerBase] = []
        self.secondaries: list[ReplicaHandlerBase] = []
        self._build_replicas()
        self._register_groups()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _make_replica(self, name: str) -> ReplicaHandlerBase:
        handler: ReplicaHandlerBase = replica_handler_for(self.config.ordering)(
            name,
            self.config,
            self.groups,
            self.app_factory(),
            self.rng,
            trace=self.trace,
            metrics=self.metrics,
        )
        self.network.attach(handler, Host(f"host-{name}"))
        return handler

    def _build_replicas(self) -> None:
        cfg = self.config
        if cfg.has_sequencer:
            self.sequencer = self._make_replica(f"{cfg.name}-seq")
        for i in range(1, cfg.num_primaries + 1):
            self.primaries.append(self._make_replica(f"{cfg.name}-p{i}"))
        for i in range(1, cfg.num_secondaries + 1):
            self.secondaries.append(self._make_replica(f"{cfg.name}-s{i}"))

    def _register_groups(self) -> None:
        # Rank order matters: the sequencer registers first so it leads the
        # primary group; p1 is next, making it the designated lazy
        # publisher for the sequential handler.
        primary_members: list[ReplicaHandlerBase] = []
        if self.sequencer is not None:
            primary_members.append(self.sequencer)
        primary_members.extend(self.primaries)

        for handler in primary_members:
            self.membership.register(self.groups.primary, handler.name)
            handler.assume_membership(self.groups.primary)
        for handler in self.secondaries:
            self.membership.register(self.groups.secondary, handler.name)
            handler.assume_membership(self.groups.secondary)
        for handler in self.all_replicas():
            self.membership.register(self.groups.qos, handler.name)
            handler.assume_membership(self.groups.qos)

        # Every replica needs all three views (roles, publisher targets,
        # client lists); watch the groups it is not a member of and install
        # the initial views synchronously.
        for handler in self.all_replicas():
            for group in (self.groups.primary, self.groups.secondary, self.groups.qos):
                if handler.name not in self.membership.view_of(group):
                    self.membership.watch(group, handler.name)
        self._push_views()

    def _push_views(self) -> None:
        for handler in self.all_replicas():
            for group in (self.groups.primary, self.groups.secondary, self.groups.qos):
                handler.adopt_view(self.membership.view_of(group))
        for client in self.clients.values():
            for group in (self.groups.primary, self.groups.secondary, self.groups.qos):
                client.adopt_view(self.membership.view_of(group))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def all_replicas(self) -> list[ReplicaHandlerBase]:
        replicas: list[ReplicaHandlerBase] = []
        if self.sequencer is not None:
            replicas.append(self.sequencer)
        replicas.extend(self.primaries)
        replicas.extend(self.secondaries)
        return replicas

    def replica_by_name(self, name: str) -> ReplicaHandlerBase:
        for handler in self.all_replicas():
            if handler.name == name:
                return handler
        raise KeyError(f"no replica named {name!r}")

    @property
    def sequencer_name(self) -> Optional[str]:
        return self.sequencer.name if self.sequencer is not None else None

    def serving_replica_count(self) -> int:
        return len(self.primaries) + len(self.secondaries)

    # ------------------------------------------------------------------
    # Dynamic membership (scale-out and recovery)
    # ------------------------------------------------------------------
    def add_secondary(self) -> ReplicaHandlerBase:
        """Grow the secondary group at runtime.

        §3: "The size of these groups can be tuned to implement a range of
        consistency semantics."  A fresh secondary joins with empty state
        and synchronizes at the next lazy update — exactly how the
        protocol keeps any secondary current, so no extra state-transfer
        machinery is needed.
        """
        self._secondary_counter = getattr(
            self, "_secondary_counter", len(self.secondaries)
        ) + 1
        handler = self._make_replica(f"{self.config.name}-s{self._secondary_counter}")
        self.secondaries.append(handler)
        self.membership.register(self.groups.secondary, handler.name)
        handler.assume_membership(self.groups.secondary)
        self.membership.register(self.groups.qos, handler.name)
        handler.assume_membership(self.groups.qos)
        self.membership.watch(self.groups.primary, handler.name)
        self._push_views()
        return handler

    def recover_secondary(self, name: str) -> ReplicaHandlerBase:
        """Bring a crashed-and-evicted secondary back into service.

        The fabric is told the endpoint is up again, the replica rejoins
        its groups (fresh channel epochs are opened automatically by the
        view change), and the next lazy update restores its state.
        """
        handler = self.replica_by_name(name)
        if handler not in self.secondaries:
            raise ValueError(f"{name!r} is not a secondary")
        self.network.recover(name)
        handler.flush_pending()
        self.membership.register(self.groups.secondary, name)
        self.membership.register(self.groups.qos, name)
        handler.assume_membership(self.groups.secondary)
        handler.assume_membership(self.groups.qos)
        self._push_views()
        return handler

    def recover_primary(self, name: str) -> ReplicaHandlerBase:
        """Bring a crashed-and-evicted primary (or ex-sequencer) back.

        The replica rejoins the primary and QoS groups at the *tail* of the
        view (rank order is join order, so it never usurps the current
        sequencer or lazy publisher), then runs the state-transfer protocol
        (DESIGN.md §9): it requests a snapshot via the current sequencer, a
        donor primary ships committed state + CSN/GSN + the uncommitted log
        suffix, and the replica replays it to re-enter at full strength.
        """
        handler = self.replica_by_name(name)
        if handler not in self.primaries and handler is not self.sequencer:
            raise ValueError(f"{name!r} is not a primary")
        if not hasattr(handler, "begin_state_transfer"):
            raise ValueError(
                f"primary recovery needs a state-transfer capable handler; "
                f"{type(handler).__name__} does not implement one"
            )
        self.network.recover(name)
        self.membership.register(self.groups.primary, name)
        self.membership.register(self.groups.qos, name)
        handler.assume_membership(self.groups.primary)
        handler.assume_membership(self.groups.qos)
        self._push_views()
        handler.begin_state_transfer()
        return handler

    def recover_replica(self, name: str) -> ReplicaHandlerBase:
        """Recover any crashed replica, dispatching on its role."""
        handler = self.replica_by_name(name)
        if handler in self.secondaries:
            return self.recover_secondary(name)
        return self.recover_primary(name)

    # ------------------------------------------------------------------
    # Closed-loop control (DESIGN.md §16)
    # ------------------------------------------------------------------
    def attach_controller(self, engine, recorder) -> ConsistencyController:
        """Build the ConsistencyController declared by ``config.controller``.

        Separate from construction because the controller's sensors — an
        :class:`~repro.obs.slo.SloEngine` and the *live*
        :class:`~repro.obs.timeseries.TimeseriesRecorder` — are owned by
        the scenario/experiment, not the service.  The controller adopts
        every primary (sequencer included) as its T_L actuator and hooks
        their failover re-arm path; consistency classes and ladders are
        registered afterwards by the caller, which then calls
        ``start()``.
        """
        if self.config.controller is None:
            raise ValueError(
                "ServiceConfig.controller is not set; nothing to attach"
            )
        if self.controller is not None:
            raise ValueError("a controller is already attached")
        controller = ConsistencyController(
            self.sim,
            engine,
            recorder,
            self.config.controller,
            trace=self.trace,
            metrics=self.metrics,
            name=f"{self.config.name}-controller",
        )
        controller.register_service(self)
        self.controller = controller
        return controller

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def create_client(
        self,
        name: str,
        read_only_methods: Optional[set[str]] = None,
        default_qos: Optional[QoSSpec] = None,
        strategy: Optional[SelectionStrategy] = None,
        staleness_model: Optional["StalenessModel"] = None,
        retry_policy: Optional[RetryPolicy] = None,
        on_qos_violation: Optional[Callable[[float], None]] = None,
        host: Optional[Host] = None,
        degradation: Optional[DegradationPolicy] = None,
        priority: Optional[str] = None,
    ) -> ClientHandler:
        """Create and wire a client gateway handler for this service."""
        if name in self.clients:
            raise ValueError(f"client {name!r} already exists")
        handler = client_handler_for(self.config.ordering)(
            name,
            self.config,
            self.groups,
            read_only_methods=read_only_methods,
            strategy=strategy,
            staleness_model=staleness_model,
            default_qos=default_qos,
            retry_policy=retry_policy,
            on_qos_violation=on_qos_violation,
            degradation=degradation,
            priority=priority,
            trace=self.trace,
            metrics=self.metrics,
            calibration=self.calibration,
        )
        self.network.attach(handler, host or Host(f"host-{name}"))
        self.membership.register(self.groups.qos, name)
        handler.assume_membership(self.groups.qos)
        self.membership.watch(self.groups.primary, name)
        self.membership.watch(self.groups.secondary, name)
        self.clients[name] = handler
        self._push_views()
        return handler


@dataclass
class Testbed:
    """A complete simulated deployment: one call away from experiments."""

    sim: Simulator
    rng: RngRegistry
    network: Network
    membership: MembershipService
    service: ReplicatedService
    trace: Trace
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    calibration: Optional[CalibrationTracker] = None


def build_testbed(
    config: Optional[ServiceConfig] = None,
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    app_factory: Callable[[], ReplicatedObject] = CounterObject,
    trace: Optional[Trace] = None,
    metrics: Optional[MetricsRegistry] = None,
    calibration: Optional[CalibrationTracker] = None,
) -> Testbed:
    """Build simulator + network + membership + one replicated service."""
    config = config or ServiceConfig()
    trace = trace if trace is not None else NULL_TRACE
    metrics = metrics if metrics is not None else MetricsRegistry()
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng, latency or LanLatency(), trace=trace, metrics=metrics)
    membership = MembershipService(config=config.membership(), trace=trace)
    network.attach(membership)
    service = ReplicatedService(
        sim, network, membership, rng, config, app_factory, trace,
        metrics=metrics, calibration=calibration,
    )
    return Testbed(
        sim, rng, network, membership, service, trace,
        metrics=metrics, calibration=calibration,
    )
