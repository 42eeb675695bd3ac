"""Open-loop workload generators.

Unlike the closed-loop clients, these issue requests on an arrival process
independent of completions.  :class:`OpenLoopUpdater` pins the update
arrival rate ``lambda_u`` — the quantity Eq. 4's Poisson staleness model
assumes — so tests can check the staleness-factor estimate against a known
ground truth.  :class:`PeriodicReader` issues reads on a fixed period for
steady sampling of the selection behaviour.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.client import ClientHandler
from repro.core.qos import QoSSpec
from repro.core.requests import ReadOutcome, UpdateOutcome
from repro.sim.kernel import Simulator
from repro.sim.process import Process, Timeout
from repro.sim.rng import RngRegistry


class ArrivalRateController:
    """A shared, mutable arrival-rate multiplier for the generators.

    Generators that accept a ``rate_controller`` consult :attr:`factor`
    before every inter-arrival gap, so a change takes effect on the next
    request.  The chaos engine's ``load_storm`` fault raises the factor
    for a bounded window to simulate a traffic burst (DESIGN.md §11);
    anything else holding the same instance observes the storm too.
    """

    def __init__(self, factor: float = 1.0) -> None:
        if factor <= 0:
            raise ValueError(f"rate factor must be positive, got {factor!r}")
        self.factor = factor
        self.storms_started = 0

    def begin_storm(self, factor: float) -> None:
        if factor <= 0:
            raise ValueError(f"storm factor must be positive, got {factor!r}")
        self.factor = factor
        self.storms_started += 1

    def end_storm(self) -> None:
        self.factor = 1.0

    @property
    def storming(self) -> bool:
        return self.factor != 1.0


class OpenLoopUpdater:
    """Issues update requests as a Poisson (or periodic) arrival process."""

    def __init__(
        self,
        sim: Simulator,
        handler: ClientHandler,
        rng: RngRegistry,
        rate: float,
        duration: float,
        method: str = "increment",
        args: Callable[[int], tuple] = lambda i: (),
        poisson: bool = True,
        rate_controller: Optional[ArrivalRateController] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration!r}")
        self.sim = sim
        self.handler = handler
        self.rate = rate
        self.duration = duration
        self.method = method
        self.args = args
        self.poisson = poisson
        self.rate_controller = rate_controller
        self.issued = 0
        self.outcomes: list[UpdateOutcome] = []
        self._rng = rng.stream(f"updater.{handler.name}")
        self.process = Process(sim, self._run(), name=f"updater-{handler.name}")

    def _effective_rate(self) -> float:
        if self.rate_controller is None:
            return self.rate
        return self.rate * self.rate_controller.factor

    def _gap(self) -> float:
        rate = self._effective_rate()
        if self.poisson:
            return self._rng.expovariate(rate)
        return 1.0 / rate

    def _run(self):
        deadline = self.sim.now + self.duration
        while True:
            gap = self._gap()
            if self.sim.now + gap > deadline:
                break
            yield Timeout(gap)
            self.handler.invoke(
                self.method, self.args(self.issued), callback=self.outcomes.append
            )
            self.issued += 1
        return self.issued


class BurstyUpdater:
    """Markov-modulated update arrivals: busy bursts separated by silence.

    Used to stress the Poisson staleness model (Eq. 4 assumes a constant
    rate) — the *mean* rate equals ``burst_rate * duty_cycle``, but counts
    over a lazy interval are heavily over-dispersed.
    """

    def __init__(
        self,
        sim: Simulator,
        handler: ClientHandler,
        rng: RngRegistry,
        burst_rate: float,
        burst_length: float,
        idle_length: float,
        duration: float,
        method: str = "increment",
        args: Callable[[int], tuple] = lambda i: (),
    ) -> None:
        if burst_rate <= 0:
            raise ValueError(f"burst rate must be positive, got {burst_rate!r}")
        if burst_length <= 0 or idle_length < 0:
            raise ValueError("invalid burst/idle lengths")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration!r}")
        self.sim = sim
        self.handler = handler
        self.burst_rate = burst_rate
        self.burst_length = burst_length
        self.idle_length = idle_length
        self.duration = duration
        self.method = method
        self.args = args
        self.issued = 0
        self._rng = rng.stream(f"bursty.{handler.name}")
        self.process = Process(sim, self._run(), name=f"bursty-{handler.name}")

    def _run(self):
        deadline = self.sim.now + self.duration
        while self.sim.now < deadline:
            burst_end = min(deadline, self.sim.now + self.burst_length)
            while True:
                gap = self._rng.expovariate(self.burst_rate)
                if self.sim.now + gap > burst_end:
                    break
                yield Timeout(gap)
                self.handler.invoke(self.method, self.args(self.issued))
                self.issued += 1
            remaining = burst_end - self.sim.now
            if remaining > 0:
                yield Timeout(remaining)
            if self.idle_length > 0 and self.sim.now < deadline:
                yield Timeout(min(self.idle_length, deadline - self.sim.now))
        return self.issued


class PoissonReader:
    """Open-loop Poisson read arrivals — the merged-stream ground truth.

    The discrete reference for the aggregated client tier
    (:mod:`repro.workloads.aggregate`): ``N`` independent Poisson readers
    at per-client rate ``λ`` are statistically indistinguishable from one
    reader at rate ``N·λ`` (Poisson superposition), so a single
    ``PoissonReader`` at the population's *total* rate is the exact
    per-request simulation of the whole population.  Outcomes are
    recorded with their issue times so summaries can drop a warmup
    prefix the same way the pool does.
    """

    def __init__(
        self,
        sim: Simulator,
        handler: ClientHandler,
        rng: RngRegistry,
        qos: QoSSpec,
        rate: float,
        duration: float,
        method: str = "get",
        args: Callable[[int], tuple] = lambda i: (),
        rate_controller: Optional[ArrivalRateController] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration!r}")
        self.sim = sim
        self.handler = handler
        self.qos = qos
        self.rate = rate
        self.duration = duration
        self.method = method
        self.args = args
        self.rate_controller = rate_controller
        self.issued = 0
        # (issued_at, outcome) pairs, in completion order.
        self.records: list[tuple[float, ReadOutcome]] = []
        self._rng = rng.stream(f"poisson-reader.{handler.name}")
        self.process = Process(sim, self._run(), name=f"preader-{handler.name}")

    def _effective_rate(self) -> float:
        if self.rate_controller is None:
            return self.rate
        return self.rate * self.rate_controller.factor

    def _issue(self, i: int) -> None:
        issued_at = self.sim.now
        self.handler.invoke(
            self.method,
            self.args(i),
            self.qos,
            callback=lambda outcome: self.records.append((issued_at, outcome)),
        )
        self.issued += 1

    def _run(self):
        deadline = self.sim.now + self.duration
        while True:
            gap = self._rng.expovariate(self._effective_rate())
            if self.sim.now + gap > deadline:
                break
            yield Timeout(gap)
            self._issue(self.issued)
        return self.issued


class PeriodicReader:
    """Issues reads on a fixed period, recording every outcome.

    With a ``rate_controller``, the period shrinks by the controller's
    current factor (a load storm makes the reader *faster*, not longer);
    with ``duration`` set, the reader runs until that much simulated time
    has elapsed instead of for a fixed count — the natural shape under
    storms, where the arrival count is itself the variable under test.
    """

    def __init__(
        self,
        sim: Simulator,
        handler: ClientHandler,
        qos: QoSSpec,
        period: float,
        count: int = 0,
        method: str = "get",
        args: Callable[[int], tuple] = lambda i: (),
        rate_controller: Optional[ArrivalRateController] = None,
        duration: Optional[float] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        if count < 0:
            raise ValueError(f"negative read count {count!r}")
        if duration is None and count == 0:
            raise ValueError("need a positive count or a duration")
        if duration is not None and duration <= 0:
            raise ValueError(f"duration must be positive, got {duration!r}")
        self.sim = sim
        self.handler = handler
        self.qos = qos
        self.period = period
        self.count = count
        self.method = method
        self.args = args
        self.rate_controller = rate_controller
        self.duration = duration
        self.issued = 0
        self.outcomes: list[ReadOutcome] = []
        self.process = Process(sim, self._run(), name=f"reader-{handler.name}")

    def _gap(self) -> float:
        if self.rate_controller is None:
            return self.period
        return self.period / self.rate_controller.factor

    def _issue(self, i: int) -> None:
        self.handler.invoke(
            self.method, self.args(i), self.qos, callback=self.outcomes.append
        )
        self.issued += 1

    def _run(self):
        if self.duration is not None:
            deadline = self.sim.now + self.duration
            while True:
                gap = self._gap()
                if self.sim.now + gap > deadline:
                    break
                yield Timeout(gap)
                self._issue(self.issued)
            return self.issued
        for i in range(self.count):
            yield Timeout(self._gap())
            self._issue(i)
        return self.count
