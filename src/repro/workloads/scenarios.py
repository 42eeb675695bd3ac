"""Canned experimental setups.

:func:`build_paper_scenario` reproduces the §6 testbed exactly:

* 10 server replicas in addition to the sequencer — 4 primary, 6 secondary;
* background load simulated by a normally distributed service delay with a
  mean of 100 ms (spread 50 ms);
* two clients on different machines, each issuing ``total_requests``
  alternating write/read requests with a 1000 ms request delay;
* client 1 fixed at ``<a=4, d=200 ms, P_c=0.1>``; client 2's deadline,
  probability, and the lazy update interval are the swept parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.client import ClientHandler
from repro.core.controller import (
    ClassBounds,
    ConsistencyController,
    ControllerConfig,
    class_adjustment_at,
    t_l_at,
)
from repro.core.overload import DegradationPolicy
from repro.core.priority import PriorityMapper
from repro.core.qos import QoSSpec
from repro.core.selection import SelectionStrategy
from repro.core.service import ServiceConfig, Testbed, build_testbed
from repro.groups.membership import MembershipConfig
from repro.obs.calibration import CalibrationTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloEngine, SloSpec
from repro.obs.timeseries import TimeseriesRecorder
from repro.sim.rng import Distribution, Normal
from repro.sim.tracing import Trace
from repro.workloads.clients import AlternatingClient, ClientWorkloadConfig
from repro.workloads.generators import (
    ArrivalRateController,
    OpenLoopUpdater,
    PeriodicReader,
)


@dataclass
class PaperScenario:
    """A built §6 testbed: run ``sim`` until both workloads finish."""

    testbed: Testbed
    client1: AlternatingClient
    client2: AlternatingClient

    @property
    def sim(self):
        return self.testbed.sim

    @property
    def service(self):
        return self.testbed.service

    def run(self, slack: float = 120.0) -> None:
        """Run until both clients finish (with a generous time bound)."""
        cfg1 = self.client1.config
        cfg2 = self.client2.config
        worst = max(
            cfg1.total_requests * (cfg1.request_delay + 5.0),
            cfg2.total_requests * (cfg2.request_delay + 5.0),
        )
        bound = self.sim.now + worst + slack
        running = [c for c in (self.client1, self.client2) if not c.finished]
        if not running:
            return

        def one_finished() -> None:
            running.pop()
            if not running:
                self.sim.stop()

        # The workload that finishes last stops the kernel from inside its
        # own final event, so the cell is one sim.run() with no per-event
        # polling and no extra event scheduled.
        for client in running:
            client.on_finished = one_finished
        try:
            self.sim.run(until=bound)
        finally:
            self.client1.on_finished = self.client2.on_finished = None
        if running:
            if self.sim.pending():
                raise RuntimeError("scenario did not finish within its time bound")
            raise RuntimeError("simulation went idle before workloads finished")


def build_paper_scenario(
    deadline: float = 0.200,
    min_probability: float = 0.9,
    lazy_update_interval: float = 2.0,
    staleness_threshold: int = 2,
    total_requests: int = 1000,
    request_delay: float = 1.0,
    seed: int = 0,
    client1_qos: Optional[QoSSpec] = None,
    num_primaries: int = 4,
    num_secondaries: int = 6,
    service_time: Optional[Distribution] = None,
    window_size: int = 20,
    strategy2: Optional[SelectionStrategy] = None,
    warmup_requests: int = 0,
    metrics: Optional[MetricsRegistry] = None,
    calibration: Optional[CalibrationTracker] = None,
    trace: Optional[Trace] = None,
) -> PaperScenario:
    """The §6 testbed with client 2's QoS as the swept variable.

    ``strategy2`` swaps client 2's selection policy (baseline ablations);
    ``warmup_requests`` excludes leading requests from client statistics;
    ``trace`` enables event tracing (e.g. the per-read
    ``replica.attribution`` staleness decomposition records).
    """
    config = ServiceConfig(
        name="svc",
        num_primaries=num_primaries,
        num_secondaries=num_secondaries,
        lazy_update_interval=lazy_update_interval,
        window_size=window_size,
        read_service_time=service_time or Normal(0.100, 0.050, floor=0.002),
    )
    testbed = build_testbed(
        config, seed=seed, metrics=metrics, calibration=calibration, trace=trace
    )
    service = testbed.service

    qos1 = client1_qos or QoSSpec(
        staleness_threshold=4, deadline=0.200, min_probability=0.1
    )
    qos2 = QoSSpec(
        staleness_threshold=staleness_threshold,
        deadline=deadline,
        min_probability=min_probability,
    )

    handler1 = service.create_client("client-1", read_only_methods={"get"})
    handler2 = service.create_client(
        "client-2", read_only_methods={"get"}, strategy=strategy2
    )

    workload1 = AlternatingClient(
        testbed.sim,
        handler1,
        ClientWorkloadConfig(
            total_requests=total_requests,
            request_delay=request_delay,
            qos=qos1,
            warmup_requests=warmup_requests,
        ),
    )
    workload2 = AlternatingClient(
        testbed.sim,
        handler2,
        ClientWorkloadConfig(
            total_requests=total_requests,
            request_delay=request_delay,
            qos=qos2,
            warmup_requests=warmup_requests,
        ),
    )
    return PaperScenario(testbed, workload1, workload2)


# ---------------------------------------------------------------------------
# Per-operation consistency classes (DESIGN.md §16)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OperationClass:
    """One operation class of a storefront-style workload.

    ``qos`` is the declared (conservative) per-read specification;
    ``bounds`` the hard guardrails the closed-loop controller may relax
    within; ``objective`` the class's timeliness SLO; ``read_period`` the
    base inter-read gap of its open-loop reader; ``priority`` feeds the
    degradation ladder's shed floor.
    """

    name: str
    qos: QoSSpec
    bounds: ClassBounds
    objective: float
    read_period: float
    priority: str


#: The canonical class mix: logins demand strong consistency (read your
#: own authentication state), carts tolerate bounded session staleness,
#: and catalogue browsing is happily eventual — exactly the per-operation
#: spectrum SNIPPETS/OptCon argue a single static setting cannot serve.
#:
#: Deadlines sit just above the conservative lazy interval (0.3 s): at
#: the declared knobs a deferred read always makes its deadline, but
#: every relax step of ``T_L`` pushes part of the deferral-wait range
#: past the deadlines — cheap and safe in calm, cheap and *bleeding*
#: under a write surge, which is the regime an adaptive controller
#: exists for.
OPERATION_CLASSES: tuple[OperationClass, ...] = (
    OperationClass(
        name="login",
        qos=QoSSpec(staleness_threshold=0, deadline=0.45, min_probability=0.95),
        bounds=ClassBounds(staleness_ceiling=2, probability_floor=0.90,
                           staleness_step=1, probability_step=0.01),
        objective=0.99,
        read_period=0.08,
        priority="platinum",
    ),
    OperationClass(
        name="cart",
        qos=QoSSpec(staleness_threshold=4, deadline=0.40, min_probability=0.85),
        bounds=ClassBounds(staleness_ceiling=16, probability_floor=0.60),
        objective=0.95,
        read_period=0.05,
        priority="gold",
    ),
    OperationClass(
        name="browse",
        qos=QoSSpec(staleness_threshold=12, deadline=0.35, min_probability=0.60),
        bounds=ClassBounds(staleness_ceiling=60, probability_floor=0.30,
                           staleness_step=8, probability_step=0.1),
        objective=0.90,
        read_period=0.025,
        priority="bronze",
    ),
)


def default_mix_service_time() -> Distribution:
    """Normally distributed replica service time, mean 20 ms."""
    return Normal(0.020, 0.005, floor=0.002)


#: Leading-indicator SLO over the replica deferral-wait histogram.  The
#: conservative knob setting hides load surges from the timeliness SLOs
#: (deferral waits stay bounded by the short lazy interval, under every
#: deadline), so a controller parked there would read "healthy" mid-surge
#: and relax straight into it.  Deferral *waits* shift right under a
#: write surge at every knob setting, so this guard burns while the
#: system is under pressure and recovers shortly after — it gates the
#: controller's exploration but is not part of the SLA satisfaction
#: score (see :mod:`repro.experiments.adaptive`).
STALENESS_GUARD = SloSpec(
    name="staleness-guard",
    objective=0.70,
    kind="staleness",
    staleness_bound=0.2,
)


def operation_slo_specs(
    classes: tuple[OperationClass, ...] = OPERATION_CLASSES,
    *,
    guard: bool = True,
) -> tuple[SloSpec, ...]:
    """One timeliness SLO per class (selected by the client label), plus
    the :data:`STALENESS_GUARD` leading indicator unless ``guard`` is
    off."""
    specs = tuple(
        SloSpec(
            name=f"timeliness-{cls.name}",
            objective=cls.objective,
            kind="timeliness",
            client=cls.name,
        )
        for cls in classes
    )
    if guard:
        specs += (STALENESS_GUARD,)
    return specs


@dataclass
class OperationMixScenario:
    """A built class-mix testbed: readers, sensors, optional controller."""

    testbed: Testbed
    classes: Dict[str, OperationClass]
    clients: Dict[str, ClientHandler]
    readers: Dict[str, PeriodicReader]
    updater: OpenLoopUpdater
    recorder: TimeseriesRecorder
    engine: SloEngine
    rate_controller: ArrivalRateController
    controller: Optional[ConsistencyController] = None
    static_relax: int = 0
    ladders: Dict[str, DegradationPolicy] = field(default_factory=dict)

    @property
    def sim(self):
        return self.testbed.sim

    @property
    def service(self):
        return self.testbed.service


def build_operation_mix_scenario(
    seed: int = 0,
    duration: float = 12.0,
    *,
    controller_config: Optional[ControllerConfig] = None,
    knob_config: Optional[ControllerConfig] = None,
    static_relax: int = 0,
    with_ladder: bool = True,
    update_rate: float = 2.0,
    lazy_update_interval: float = 0.3,
    num_primaries: int = 3,
    num_secondaries: int = 3,
    recorder_interval: float = 0.1,
    service_time: Optional[Distribution] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace: Optional[Trace] = None,
    classes: tuple[OperationClass, ...] = OPERATION_CLASSES,
) -> OperationMixScenario:
    """Build the login/cart/browse mix, closed- or open-loop.

    With ``controller_config`` the scenario attaches a started
    :class:`~repro.core.controller.ConsistencyController` driving all
    three knob families.  Without one, ``static_relax`` pins every knob
    at that ladder index **using the exact same knob math** the
    controller would apply (``t_l_at`` / ``class_adjustment_at``), which
    is what makes the controller-vs-static grid in
    ``experiments/adaptive.py`` a fair comparison.

    ``duration`` is the reader/updater horizon in simulated seconds; the
    caller owns warmup and drain.
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    # Static cells pin their knobs with the same ladder shape the
    # controller walks; pass ``knob_config`` explicitly so a static grid
    # stays comparable to a closed-loop run with a non-default config.
    knob_config = knob_config or controller_config or ControllerConfig()
    closed_loop = controller_config is not None
    static_t_l = t_l_at(knob_config, lazy_update_interval, static_relax)

    config = ServiceConfig(
        name="svc",
        num_primaries=num_primaries,
        num_secondaries=num_secondaries,
        lazy_update_interval=(
            lazy_update_interval if closed_loop else static_t_l
        ),
        read_service_time=service_time or default_mix_service_time(),
        membership=MembershipConfig(heartbeat_interval=0.1, suspect_timeout=0.35),
        gsn_wait_timeout=0.15,
        gc_timeout=4.0,
        controller=controller_config,
    )
    testbed = build_testbed(config, seed=seed, metrics=metrics, trace=trace)
    sim, service = testbed.sim, testbed.service

    mapper = PriorityMapper()
    rate_controller = ArrivalRateController()
    clients: Dict[str, ClientHandler] = {}
    readers: Dict[str, PeriodicReader] = {}
    ladders: Dict[str, DegradationPolicy] = {}
    feed = service.create_client("feed", read_only_methods={"get"})
    # The rate controller modulates the *write* stream: a load storm is a
    # write surge, which is what stresses lazy propagation and staleness
    # (a read surge would melt queues identically at every consistency
    # setting and tell us nothing about the knobs).
    updater = OpenLoopUpdater(
        sim,
        feed,
        testbed.rng,
        rate=update_rate,
        duration=duration,
        rate_controller=rate_controller,
    )
    for cls in classes:
        ladder = DegradationPolicy(mapper) if with_ladder else None
        qos = cls.qos
        if not closed_loop and static_relax > 0:
            qos = class_adjustment_at(cls.bounds, static_relax).apply(qos)
        handler = service.create_client(
            cls.name,
            read_only_methods={"get"},
            degradation=ladder,
            priority=cls.priority,
        )
        clients[cls.name] = handler
        if ladder is not None:
            ladders[cls.name] = ladder
        readers[cls.name] = PeriodicReader(
            sim,
            handler,
            qos,
            period=cls.read_period,
            duration=duration,
        )

    engine = SloEngine(operation_slo_specs(classes))
    recorder = TimeseriesRecorder(
        sim, metrics, interval=recorder_interval
    ).start()

    controller = None
    if closed_loop:
        controller = service.attach_controller(engine, recorder)
        for cls in classes:
            controller.register_class(
                cls.name, [clients[cls.name]], cls.bounds, cls.qos
            )
            if cls.name in ladders:
                controller.register_ladder(ladders[cls.name])
        controller.start()

    return OperationMixScenario(
        testbed=testbed,
        classes={cls.name: cls for cls in classes},
        clients=clients,
        readers=readers,
        updater=updater,
        recorder=recorder,
        engine=engine,
        rate_controller=rate_controller,
        controller=controller,
        static_relax=static_relax,
        ladders=ladders,
    )
