"""The trust verdict against the rule it replaced.

The commit-gap watchdog's guard (``CatchUp._holes_close_in_time``) asks
``Network.trusted``.  It used to compute its own rule; that rule is kept
below, and the verdict must equal it on every link of a LAN, a fixed-delay
fabric, a WAN and a LAN with slow links, fault-free or expecting faults.
"""

from types import SimpleNamespace

import pytest

from repro.core.handlers.catchup import CatchUp
from repro.groups.group import GroupEndpoint
from repro.net.latency import FixedLatency, LanLatency, LatencyModel
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import Normal, RngRegistry

MEMBERS = ("a", "b", "c")
WAN = LatencyModel(Normal(0.05, 0.015, floor=0.02), bandwidth_bytes_per_s=10e6 / 8)


# ---------------------------------------------------------------------------
# The rule the watchdog used to compute itself
# ---------------------------------------------------------------------------
def gap_rule(network, me, period=0.6):
    return network.fault_free and all(
        4.0 * network.latency_for(sender, me).mean_delay() < period
        for sender in network.endpoints()
    )


# ---------------------------------------------------------------------------
# Fabrics
# ---------------------------------------------------------------------------
def fabric(latency, slow, expect_faults):
    """Three members; with ``slow``, every link into and out of ``a`` takes
    that fixed delay."""
    network = Network(Simulator(), RngRegistry(3), latency)
    members = {name: GroupEndpoint(name) for name in MEMBERS}
    for member in members.values():
        network.attach(member)
    if slow is not None:
        for other in ("b", "c"):
            network.set_link("a", other, FixedLatency(slow))
            network.set_link(other, "a", FixedLatency(slow))
    if expect_faults:
        network.expect_faults()
    return network


FABRICS = {
    "lan": (LanLatency(), None),
    "fixed": (FixedLatency(0.002), None),
    "wan": (WAN, None),
    # Inside the gap guard's period by ever less; past it.
    "slow-8ms": (LanLatency(), 0.008),
    "slow-20ms": (LanLatency(), 0.02),
    "slow-200ms": (LanLatency(), 0.2),
    "slow-800ms": (LanLatency(), 0.8),
}


@pytest.mark.parametrize("expect_faults", [False, True], ids=["fault-free", "faults"])
@pytest.mark.parametrize("name", list(FABRICS))
def test_every_verdict_is_the_rule_it_replaced(name, expect_faults):
    network = fabric(*FABRICS[name], expect_faults)
    seen = set()
    for sender in MEMBERS:
        catchup = CatchUp.__new__(CatchUp)
        catchup.handler = SimpleNamespace(detector=None, network=network, name=sender)
        gap = catchup._holes_close_in_time()
        assert gap == gap_rule(network, sender), sender
        seen.add(gap)
    if expect_faults:
        assert seen == {False}


def test_the_table_reaches_both_sides_of_every_threshold():
    """Fault-free, the fabrics above put each verdict both ways."""
    verdicts = set()
    for latency, slow in FABRICS.values():
        network = fabric(latency, slow, expect_faults=False)
        for sender in MEMBERS:
            verdicts.add(gap_rule(network, sender))
    assert verdicts == {False, True}
