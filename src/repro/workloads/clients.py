"""Closed-loop client workloads (§6's request pattern).

"each of the two clients issued 1000 alternating write and read requests
to the service" with "a 1000 millisecond request delay, which we define as
the duration that elapses before a client issues its next request after
completion of its previous request."

:class:`AlternatingClient` reproduces that pattern as a simulation process
on top of a :class:`~repro.core.client.ClientHandler`, collecting every
outcome for post-run analysis
(:meth:`repro.experiments.harness.Figure4Cell.from_reads` summarizes the
reads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.client import ClientHandler
from repro.core.qos import QoSSpec
from repro.core.requests import ReadOutcome, UpdateOutcome
from repro.sim.kernel import Simulator
from repro.sim.process import Process, Timeout


@dataclass
class ClientWorkloadConfig:
    """Shape of one closed-loop client."""

    total_requests: int = 1000  # alternating: ceil/2 writes, floor/2 reads
    request_delay: float = 1.0  # seconds between completion and next issue
    qos: QoSSpec = field(
        default_factory=lambda: QoSSpec(
            staleness_threshold=2, deadline=0.200, min_probability=0.9
        )
    )
    warmup_requests: int = 0  # leading requests excluded from statistics

    def __post_init__(self) -> None:
        if self.total_requests < 0:
            raise ValueError("negative request count")
        if self.request_delay < 0:
            raise ValueError("negative request delay")
        if self.warmup_requests < 0:
            raise ValueError("negative warmup count")


class AlternatingClient:
    """Drives a client handler through the §6 alternating pattern."""

    def __init__(
        self,
        sim: Simulator,
        handler: ClientHandler,
        config: ClientWorkloadConfig,
    ) -> None:
        self.sim = sim
        self.handler = handler
        self.config = config
        self.read_outcomes: list[ReadOutcome] = []
        self.update_outcomes: list[UpdateOutcome] = []
        self.warmup_skipped = 0
        #: Called once, from the workload's last event, when every request
        #: has completed (``PaperScenario.run`` stops the kernel with it).
        self.on_finished: Optional[Callable[[], None]] = None
        self.process = Process(sim, self._run(), name=f"workload-{handler.name}")

    @property
    def finished(self) -> bool:
        return not self.process.alive

    # ------------------------------------------------------------------
    # The workload process
    # ------------------------------------------------------------------
    def _run(self):
        cfg = self.config
        is_update = True  # §6: writes and reads alternate, a write first
        for i in range(cfg.total_requests):
            if is_update:
                outcome = yield self.handler.call("increment")
            else:
                outcome = yield self.handler.call("get", (), cfg.qos)
            self._record(outcome, i)
            is_update = not is_update
            if cfg.request_delay > 0:
                yield Timeout(cfg.request_delay)
        if self.on_finished is not None:
            self.on_finished()
        return {
            "reads": len(self.read_outcomes),
            "updates": len(self.update_outcomes),
        }

    def _record(self, outcome: Any, index: int) -> None:
        if index < self.config.warmup_requests:
            self.warmup_skipped += 1
            return
        if isinstance(outcome, ReadOutcome):
            self.read_outcomes.append(outcome)
        elif isinstance(outcome, UpdateOutcome):
            self.update_outcomes.append(outcome)
