"""Simulated network substrate.

Stand-in for the 100 Mbps LAN of the paper's testbed: named endpoints
attached to a :class:`~repro.net.network.Network` fabric exchange messages
with sampled link latency, optional loss, partitions, and host crashes.
Hosts (:mod:`repro.net.node`) carry a speed factor so the heterogeneity of
the paper's 300 MHz–1 GHz machines can be modelled, and
:mod:`repro.net.failures` injects crashes, partitions, and transient
overloads at scheduled virtual times.
"""

from repro.net.message import Message
from repro.net.latency import FixedLatency, LanLatency, LatencyModel
from repro.net.network import Endpoint, Network, NetworkError
from repro.net.node import Host
from repro.net.failures import FailureInjector, OverloadWindow

__all__ = [
    "Message",
    "LatencyModel",
    "FixedLatency",
    "LanLatency",
    "Endpoint",
    "Network",
    "NetworkError",
    "Host",
    "FailureInjector",
    "OverloadWindow",
]
