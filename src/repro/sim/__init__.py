"""Discrete-event simulation substrate.

The paper evaluated its middleware on a LAN of Linux hosts; this package is
the stand-in testbed.  It provides a deterministic event-driven simulator
(:mod:`repro.sim.kernel`), generator-based processes
(:mod:`repro.sim.process`), reproducible named random streams and delay
distributions (:mod:`repro.sim.rng`), vector clocks
(:mod:`repro.sim.clock`), and structured tracing
(:mod:`repro.sim.tracing`).
"""

from repro.sim.kernel import Event, SimulationError, Simulator
from repro.sim.process import Process, Signal, Timeout
from repro.sim.rng import (
    Constant,
    Distribution,
    LogNormal,
    Normal,
    RngRegistry,
)
from repro.sim.tracing import NULL_TRACE, Trace, TraceRecord

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "Process",
    "Signal",
    "Timeout",
    "Constant",
    "Distribution",
    "LogNormal",
    "Normal",
    "RngRegistry",
    "NULL_TRACE",
    "Trace",
    "TraceRecord",
]
