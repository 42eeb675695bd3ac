"""Lazy liveness: in a fault-free fabric heartbeats are evaluated at the
membership sweep and not sent.

Every scenario runs twice where it matters: on a fabric told to expect
faults at t = 0, which beats for real throughout (the code before lazy
liveness existed), and on one left fault-free.  What the membership
service decides must not depend on which.
"""

import pytest

from repro.groups.group import GroupEndpoint
from repro.groups.membership import (
    HeartbeatMsg,
    MembershipConfig,
    MembershipService,
)
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

MEMBERS = ("a", "b", "c")


class SpyNetwork(Network):
    """Records every heartbeat put on the wire as ``(time, sender)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.beats = []

    def send(self, sender, recipient, payload, size_bytes=256):
        if isinstance(payload, HeartbeatMsg):
            self.beats.append((self.sim.now, sender))
        return super().send(sender, recipient, payload, size_bytes)


class Group:
    """A service and its members on one fabric, with the views it installed."""

    def __init__(self, expect_faults, beating=MEMBERS):
        self.sim = Simulator()
        self.network = SpyNetwork(self.sim, RngRegistry(7), FixedLatency(0.001))
        if expect_faults:
            self.network.expect_faults()
        config = MembershipConfig()
        self.service = MembershipService(config=config)
        self.network.attach(self.service)
        self.views = []  # (time installed, members)
        self.service.observe(
            lambda view: self.views.append((self.sim.now, view.members))
        )
        for name in MEMBERS:
            member = GroupEndpoint(
                name, heartbeat_interval=config.heartbeat_interval
            )
            self.network.attach(member)
            self.service.register("g", name)
            if name in beating:
                member.assume_membership("g")

    def evictions(self):
        """``{member: time}`` of every eviction after the initial wiring."""
        out = {}
        for (_, before), (at, after) in zip(self.views, self.views[1:]):
            for gone in set(before) - set(after):
                out[gone] = at
        return out


def test_fault_free_fabric_carries_no_heartbeat_and_keeps_the_view():
    group = Group(expect_faults=False)
    group.sim.run(until=10.0)
    assert group.network.beats == []
    assert group.network.fault_free
    assert group.evictions() == {}
    assert group.service.view_of("g").members == MEMBERS
    # The wiring's six view deliveries, two sweeps and one first-tick event
    # per endpoint: no timer per beat.  The first sweep (0.25) runs before
    # the members' first ticks make them lazy; the second (0.5) finds every
    # member beating lazily, so all a later sweep could do is credit a beat
    # that no fault can make go missing: the chain stops there.
    assert group.network.messages_sent.value == 6
    assert group.sim.events_processed == 6 + 2 + len(MEMBERS)


def test_fabric_that_expects_faults_beats_on_the_wire():
    group = Group(expect_faults=True)
    group.sim.run(until=10.0)
    assert len(group.network.beats) == len(MEMBERS) * 40
    assert group.evictions() == {}


@pytest.mark.parametrize("expect_faults", [True, False])
def test_member_that_never_beats_is_evicted_at_the_same_sweep(expect_faults):
    """Registered, in the view, but never assumed membership: no beat is
    due from it, so the fault-free sweep does not count it as heard from."""
    group = Group(expect_faults, beating=("a", "b"))
    group.sim.run(until=5.0)
    # Credited at t = 0 on admission, suspected by the first sweep that
    # finds that older than suspect_timeout = 1.0.
    assert group.evictions() == {"c": 1.25}


@pytest.mark.parametrize("expect_faults", [True, False])
@pytest.mark.parametrize(
    "delay, beats_for_real, evicted",
    [
        (0.74, False, {}),  # inside suspect_timeout - heartbeat_interval
        (0.75, True, {}),  # on the bound: no longer taken on trust
        (1.20, True, {"c": 1.25}),  # its first beat lands after the sweep
    ],
)
def test_member_behind_a_slow_link_beats_for_real(
    expect_faults, delay, beats_for_real, evicted
):
    """Lazy liveness assumes a beat lands within ``suspect_timeout -
    heartbeat_interval``.  A member whose link cannot promise that beats
    on the wire, and is judged by what arrives — as it always was."""
    group = Group(expect_faults)
    group.network.set_link("c", "membership", FixedLatency(delay))
    group.sim.run(until=5.0)
    senders = {sender for _, sender in group.network.beats}
    assert ("c" in senders) == (beats_for_real or expect_faults)
    assert group.evictions() == evicted
    if not expect_faults:
        # The slow link is that member's business: the rest stay lazy.
        assert group.network.fault_free
        assert senders <= {"c"}
