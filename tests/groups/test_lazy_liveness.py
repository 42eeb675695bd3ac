"""Lazy liveness: in a fault-free fabric heartbeats are evaluated at the
membership sweep and not sent; the first fault switches to real beats.

Every scenario runs twice where it matters: on a fabric told to expect
faults at t = 0, which beats for real throughout (the code before lazy
liveness existed), and on one left fault-free.  What the membership
service decides must not depend on which.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.groups.group import GroupEndpoint
from repro.groups.membership import (
    HeartbeatMsg,
    MembershipConfig,
    MembershipService,
)
from repro.net.latency import FixedLatency, LanLatency
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

MEMBERS = ("a", "b", "c")
FAST = MembershipConfig(heartbeat_interval=0.1, suspect_timeout=0.35)


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

    def __init__(self, expect_faults, config=None, latency=None, beating=MEMBERS):
        self.sim = Simulator()
        self.network = SpyNetwork(
            self.sim, RngRegistry(7), latency or FixedLatency(0.001)
        )
        if expect_faults:
            self.network.expect_faults()
        config = config or MembershipConfig()
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
    # that the first fault overwrites anyway: the chain stops there.
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


def test_rewiring_a_judged_link_ends_the_fault_free_state():
    group = Group(expect_faults=False)
    group.sim.run(until=3.1)
    assert group.network.beats == []
    group.network.set_link("c", "membership", FixedLatency(1.2))
    assert not group.network.fault_free
    group.sim.run(until=6.0)
    # Everyone beats again on the old tick grid; c's beats now land 1.2 s
    # late, so the credit for its last fast beat (3.0 + 1 ms) runs out.
    assert [t for t, sender in group.network.beats if sender == "a"][:2] == [3.25, 3.5]
    assert group.evictions() == {"c": 4.25}


def test_first_fault_credits_the_latest_landed_tick_and_resumes_the_grid():
    group = Group(expect_faults=False)
    group.sim.run(until=2.3)
    group.network.crash("b")
    group.sim.run(until=5.0)
    assert [t for t, _ in group.network.beats[:2]] == [2.5, 2.5]  # a, c
    assert {sender for _, sender in group.network.beats} == {"a", "c"}
    # b's tick 2.25 had landed (+ 1 ms) by 2.3, so it is good until the
    # first sweep after 3.251; crediting the tick before would say 3.25.
    assert group.evictions() == {"b": 3.5}


@settings(max_examples=60, deadline=None)
@given(
    crash_at=st.floats(min_value=0.05, max_value=6.0),
    victim=st.sampled_from(MEMBERS),
    config=st.sampled_from([MembershipConfig(), FAST]),
)
@example(crash_at=2.0001, victim="b", config=MembershipConfig())  # beat in flight
@example(crash_at=2.25, victim="a", config=MembershipConfig())  # on a tick
@example(crash_at=0.05, victim="c", config=FAST)  # before anyone's first tick
def test_switch_over_evicts_the_victim_at_the_same_sweep(crash_at, victim, config):
    """Crash one member at a random time on a jittery LAN: whether the
    fabric expected faults from t = 0 or was fault-free until the crash,
    no survivor is ever evicted and the victim goes at the same sweep.

    The one exception is a crash within a link delay of a beat tick: the
    fabric that beat for real has that beat in flight and it will land,
    the one that switched credits the tick before it.
    """
    evicted_at = {}
    for expect_faults in (True, False):
        group = Group(expect_faults, config=config, latency=LanLatency())
        group.sim.schedule_at(crash_at, group.network.crash, victim)
        group.sim.run(until=crash_at + 3.0)
        evictions = group.evictions()
        assert set(evictions) == {victim}
        evicted_at[expect_faults] = evictions[victim]

    interval = config.heartbeat_interval
    since_tick = crash_at % interval
    in_flight = min(since_tick, interval - since_tick) <= 0.001
    if in_flight:
        assert evicted_at[False] == pytest.approx(
            evicted_at[True], abs=interval + 1e-9
        )
    else:
        assert evicted_at[False] == evicted_at[True]
