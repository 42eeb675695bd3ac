"""The paper's primary contribution: the tunable consistency middleware.

Layering (bottom → top):

* :mod:`repro.core.qos` — the two-dimensional consistency + timeliness QoS
  model of §2;
* :mod:`repro.core.requests` — the request model (read-only registry,
  update vs. read) and every protocol wire payload;
* :mod:`repro.core.state` — the versioned replicated-object interface;
* :mod:`repro.core.config` — ``ServiceConfig``, the one declaration and
  validator of every service parameter; everything below is built from it;
* :mod:`repro.core.replica` / :mod:`repro.core.handlers` — the server-side
  gateway handlers implementing §4's tunable consistency protocols
  (sequential with sequencer/GSN/CSN, FIFO, and causal) over one lazy
  publisher in the handler base;
* :mod:`repro.core.repository`, :mod:`repro.core.prediction`,
  :mod:`repro.core.selection` — the client-side probabilistic machinery of
  §5 (performance history, response-time distributions, staleness factor,
  and Algorithm 1);
* :mod:`repro.core.client` — the client-side gateway handler with online
  monitoring and the timing-failure detector (§5.4);
* :mod:`repro.core.service` — assembles a whole replicated service
  (sequencer + primary group + secondary group + QoS group).
"""

from repro.core.qos import OrderingGuarantee, QoSSpec
from repro.core.requests import ReadOutcome, Request, RequestKind, UpdateOutcome
from repro.core.state import CounterObject, ReplicatedObject
from repro.core.selection import ReplicaView, StateBasedSelection
from repro.core.staleness import (
    PoissonStalenessModel,
    RateMixtureStalenessModel,
    StalenessModel,
)
from repro.core.admission import AdmissionController, ClientProfile
from repro.core.priority import CostMapper, PriorityMapper
from repro.core.tuning import AdaptiveLazyController, StalenessTarget
from repro.core.client import ClientHandler
from repro.core.gateway import Gateway
from repro.core.service import ReplicatedService, ServiceConfig, build_testbed

__all__ = [
    "OrderingGuarantee",
    "QoSSpec",
    "ReadOutcome",
    "Request",
    "RequestKind",
    "UpdateOutcome",
    "CounterObject",
    "ReplicatedObject",
    "ReplicaView",
    "StateBasedSelection",
    "StalenessModel",
    "PoissonStalenessModel",
    "RateMixtureStalenessModel",
    "AdmissionController",
    "ClientProfile",
    "CostMapper",
    "PriorityMapper",
    "AdaptiveLazyController",
    "StalenessTarget",
    "ClientHandler",
    "Gateway",
    "ReplicatedService",
    "ServiceConfig",
    "build_testbed",
]
