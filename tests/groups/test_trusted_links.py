"""The three trust verdicts against the rules they replaced.

The ack guard (``GroupEndpoint._raw_send``), the beat decision
(``MembershipService.beats_land_in_time``) and the commit-gap watchdog's
guard (``CatchUp._holes_close_in_time``) each ask ``Network.trusted``.  Each
used to compute its own rule; those rules are kept below, and the
verdicts must equal theirs on every link of a LAN, a fixed-delay fabric, a
WAN and a LAN with slow links, fault-free or expecting faults.
"""

from types import SimpleNamespace

import pytest

from repro.core.handlers.catchup import CatchUp
from repro.groups.group import GroupEndpoint
from repro.groups.membership import MembershipService
from repro.net.latency import FixedLatency, LanLatency, LatencyModel
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import Normal, RngRegistry

MEMBERS = ("a", "b", "c")
WAN = LatencyModel(Normal(0.05, 0.015, floor=0.02), bandwidth_bytes_per_s=10e6 / 8)


# ---------------------------------------------------------------------------
# The rules each caller used to compute itself
# ---------------------------------------------------------------------------
def ack_rule(network, sender, recipient, rto=0.05):
    if not network.fault_free:
        return False
    out = network.latency_for(sender, recipient)
    back = network.latency_for(recipient, sender)
    round_trip = out.mean_delay() + back.mean_delay(64)
    return network.is_up(recipient) and 4.0 * round_trip < rto


def beat_rule(network, member, service, interval=0.25, suspect_timeout=1.0):
    if not (network.fault_free and network.is_up(service)):
        return False
    return network.latency_for(member, service).mean_delay(64) < suspect_timeout - interval


def gap_rule(network, me, period=0.6):
    return network.fault_free and all(
        4.0 * network.latency_for(sender, me).mean_delay() < period
        for sender in network.endpoints()
    )


# ---------------------------------------------------------------------------
# Fabrics
# ---------------------------------------------------------------------------
def fabric(latency, slow, expect_faults):
    """Three members and a membership service; with ``slow``, every link
    into and out of ``a`` takes that fixed delay."""
    network = Network(Simulator(), RngRegistry(3), latency)
    service = MembershipService()
    network.attach(service)
    members = {name: GroupEndpoint(name) for name in MEMBERS}
    for member in members.values():
        network.attach(member)
    if slow is not None:
        for other in ("b", "c", service.name):
            network.set_link("a", other, FixedLatency(slow))
            network.set_link(other, "a", FixedLatency(slow))
    if expect_faults:
        network.expect_faults()
    return network, service, members


FABRICS = {
    "lan": (LanLatency(), None),
    "fixed": (FixedLatency(0.002), None),
    "wan": (WAN, None),
    # Past the ack guard's round trip but not its one way; past the ack
    # guard only; past the gap guard too; past all three.
    "slow-8ms": (LanLatency(), 0.008),
    "slow-20ms": (LanLatency(), 0.02),
    "slow-200ms": (LanLatency(), 0.2),
    "slow-800ms": (LanLatency(), 0.8),
}


@pytest.mark.parametrize("expect_faults", [False, True], ids=["fault-free", "faults"])
@pytest.mark.parametrize("name", list(FABRICS))
def test_every_verdict_is_the_rule_it_replaced(name, expect_faults):
    network, service, members = fabric(*FABRICS[name], expect_faults)
    seen = set()
    for sender, endpoint in members.items():
        for recipient in MEMBERS:
            if recipient == sender:
                continue
            endpoint.gsend("g", recipient, "x")
            trusted = endpoint.fifo_sender.unacked == 0
            # The sender keeps its books on a message the rule distrusts.
            endpoint.fifo_sender.forget_recipient("g", recipient)
            assert trusted == ack_rule(network, sender, recipient), (sender, recipient)
            seen.add(("ack", trusted))
        beat = service.beats_land_in_time(sender, 0.25)
        assert beat == beat_rule(network, sender, service.name), sender
        seen.add(("beat", beat))
        catchup = CatchUp.__new__(CatchUp)
        catchup.handler = SimpleNamespace(detector=None, network=network, name=sender)
        gap = catchup._holes_close_in_time()
        assert gap == gap_rule(network, sender), sender
        seen.add(("gap", gap))
    if expect_faults:
        assert seen == {("ack", False), ("beat", False), ("gap", False)}


def test_the_table_reaches_both_sides_of_every_threshold():
    """Fault-free, the fabrics above put each verdict both ways."""
    verdicts = set()
    for latency, slow in FABRICS.values():
        network, service, _ = fabric(latency, slow, expect_faults=False)
        for sender in MEMBERS:
            for recipient in MEMBERS:
                if recipient != sender:
                    verdicts.add(("ack", ack_rule(network, sender, recipient)))
            verdicts.add(("beat", beat_rule(network, sender, service.name)))
            verdicts.add(("gap", gap_rule(network, sender)))
    assert verdicts == {(k, v) for k in ("ack", "beat", "gap") for v in (False, True)}
