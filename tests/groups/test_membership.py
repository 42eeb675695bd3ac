"""Unit tests for views and the membership service."""

import pytest

from repro.groups.group import GroupEndpoint
from repro.groups.membership import (
    MembershipConfig,
    MembershipService,
    View,
)


# ---------------------------------------------------------------------------
# View
# ---------------------------------------------------------------------------
def test_view_leader_is_rank_zero():
    view = View("g", 1, ("a", "b", "c"))
    assert view.leader == "a"


def test_empty_view_has_no_leader():
    assert View("g", 0, ()).leader is None


def test_view_membership_and_len():
    view = View("g", 1, ("a", "b"))
    assert "a" in view and "z" not in view
    assert len(view) == 2


def test_view_rejects_duplicates_and_negative_id():
    with pytest.raises(ValueError):
        View("g", 1, ("a", "a"))
    with pytest.raises(ValueError):
        View("g", -1, ("a",))


# ---------------------------------------------------------------------------
# MembershipConfig
# ---------------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        MembershipConfig(heartbeat_interval=0.0)
    with pytest.raises(ValueError):
        MembershipConfig(heartbeat_interval=1.0, suspect_timeout=0.5)
    with pytest.raises(ValueError):
        MembershipConfig(heartbeat_interval=-0.25)


# ---------------------------------------------------------------------------
# MembershipService
# ---------------------------------------------------------------------------
class Member(GroupEndpoint):
    def __init__(self, name):
        super().__init__(name)
        self.view_changes = []

    def on_view_change(self, view, previous):
        self.view_changes.append((view, previous))


@pytest.fixture
def stack(sim, network):
    service = MembershipService()
    network.attach(service)
    members = {}
    for name in ("a", "b", "c"):
        member = Member(name)
        network.attach(member)
        members[name] = member
    return service, members


def test_register_preserves_rank_order(stack):
    service, _ = stack
    service.register("g", "a")
    service.register("g", "b")
    service.register("g", "c")
    view = service.view_of("g")
    assert view.members == ("a", "b", "c")
    assert view.view_id == 3


def test_register_is_idempotent(stack):
    service, _ = stack
    service.register("g", "a")
    v1 = service.register("g", "a")
    assert v1.members == ("a",)
    assert v1.view_id == 1


def test_view_of_unknown_group_is_empty(stack):
    service, _ = stack
    assert len(service.view_of("nope")) == 0


def test_join_message_installs_view_at_members(sim, stack):
    service, members = stack
    members["a"].join("g")
    members["b"].join("g")
    sim.run(until=1.0)
    assert service.view_of("g").members in (("a", "b"), ("b", "a"))
    assert members["a"].view_of("g") == service.view_of("g")
    assert members["b"].view_of("g") == service.view_of("g")


def test_leave_removes_member(sim, stack):
    service, members = stack
    members["a"].join("g")
    members["b"].join("g")
    sim.run(until=1.0)
    members["a"].leave("g")
    sim.run(until=2.0)
    assert service.view_of("g").members == ("b",)


def test_watcher_receives_views_without_membership(sim, stack):
    service, members = stack
    service.watch("g", "c")
    members["a"].join("g")
    sim.run(until=1.0)
    assert members["c"].view_of("g").members == ("a",)
    assert "c" not in service.view_of("g")


def test_silent_member_is_evicted(sim, network, stack):
    service, members = stack
    for name in ("a", "b"):
        members[name].join("g")
    sim.run(until=1.0)
    network.crash("a")
    sim.run(until=4.0)
    assert service.view_of("g").members == ("b",)
    # Survivors learn the new view.
    assert members["b"].view_of("g").members == ("b",)


def test_eviction_promotes_next_rank_to_leader(sim, network, stack):
    service, members = stack
    service.register("g", "a")
    service.register("g", "b")
    service.register("g", "c")
    for member in members.values():
        member.assume_membership("g")
        member.adopt_view(service.view_of("g"))
    sim.run(until=1.0)
    network.crash("a")
    sim.run(until=4.0)
    assert service.view_of("g").leader == "b"
    assert members["b"].view_of("g").leader == "b"


def test_register_installs_a_view_without_sending_it(sim, network, stack):
    """``register`` callers hand the views out themselves: nothing is sent."""
    service, members = stack
    for name in ("a", "b", "c"):
        service.register("g", name)
    sim.run(until=1.0)
    assert service.view_of("g").members == ("a", "b", "c")
    assert network.messages_sent.value == 0
    assert all(len(m.view_of("g")) == 0 for m in members.values())


@pytest.mark.parametrize("fault", ["partition", "crash"])
def test_a_view_lost_on_the_way_is_resent_once_its_recipient_is_reachable(
    sim, network, stack, fault
):
    """A member cut off (or down) while a view change was multicast gets
    that view when the cut heals (or it recovers); no timer retries it
    before then."""
    service, members = stack
    for name in ("a", "b", "c"):
        members[name].join("g")
    sim.run(until=1.0)
    if fault == "partition":
        network.partition({"membership"}, {"c"}, name="cut")
    else:
        network.crash("c")
    members["b"].leave("g")
    sim.run(until=1.05)
    assert service.view_of("g").members == ("a", "c")
    assert members["c"].view_of("g").members == ("a", "b", "c")
    sent = network.messages_sent.value
    sim.run(until=1.1)
    assert network.messages_sent.value == sent  # no timer retries a cut
    if fault == "partition":
        network.heal_partition("cut")
    else:
        network.recover("c")
    sim.run(until=1.2)
    assert members["c"].view_of("g") == service.view_of("g")
    assert not service._lost_views


def test_a_view_lost_at_random_is_resent_after_a_heartbeat_interval(
    sim, network, stack
):
    """A view the fabric drops at random, with its recipient reachable, is
    resent one ``heartbeat_interval`` later: no fault transition comes to
    resend it."""
    service, members = stack
    for name in ("a", "b", "c"):
        members[name].join("g")
    sim.run(until=1.0)
    members["b"].leave("g")  # sent before the loss starts
    network.drop_probability = 0.999999
    sim.run(until=1.05)
    network.drop_probability = 0.0
    assert service.view_of("g").members == ("a", "c")
    assert members["c"].view_of("g").members == ("a", "b", "c")
    assert set(service._lost_views) == {("a", "g"), ("c", "g")}
    resend_at = 1.0 + 0.001 + service.config.heartbeat_interval
    sim.run(until=resend_at - 1e-6)
    assert members["c"].view_of("g").members == ("a", "b", "c")
    sim.run(until=resend_at + 0.002)
    assert members["a"].view_of("g") == service.view_of("g")
    assert members["c"].view_of("g") == service.view_of("g")
    assert not service._lost_views


def test_observer_callback_sees_installs(stack, recorder):
    service, _ = stack
    service.observe(recorder)
    service.register("g", "a")
    assert len(recorder) == 1
    assert recorder.last.members == ("a",)


def test_member_in_multiple_groups(sim, stack):
    service, members = stack
    members["a"].join("g1")
    members["a"].join("g2")
    sim.run(until=1.0)
    assert "a" in service.view_of("g1")
    assert "a" in service.view_of("g2")
    assert set(service.groups()) == {"g1", "g2"}


def test_heartbeats_keep_member_alive(sim, stack):
    service, members = stack
    members["a"].join("g")
    sim.run(until=10.0)  # many suspect windows; it is heard throughout
    assert "a" in service.view_of("g")


@pytest.mark.parametrize(
    "jitter, restore_at, evicted_at",
    [
        (1.4, None, None),  # a beat's mean delay 0.701 s: still heard
        (1.6, None, 3.25),  # 0.801 s, past suspect_timeout - heartbeat_interval
        (1.6, 3.2, None),  # restored before the sweep that would evict it
    ],
)
def test_a_member_slowed_past_the_suspect_window_is_evicted(
    sim, network, stack, jitter, restore_at, evicted_at
):
    """A degradation that pushes a beat's mean delay past ``suspect_timeout
    - heartbeat_interval`` (0.75 s) leaves the member unheard: evicted at
    the first sweep 1 s after its last beat landed (sent at 2.0 s), unless
    it is restored before."""
    service, members = stack
    for member in members.values():
        member.join("g")
    evictions = []
    service.observe(
        lambda view: "c" not in view and view.view_id > 3 and evictions.append(sim.now)
    )
    sim.run(until=2.1)
    network.degrade_node("c", factor=1.0, jitter_s=jitter)
    if restore_at is not None:
        sim.schedule_at(restore_at, network.restore_node, "c")
    sim.run(until=6.0)
    assert evictions == ([] if evicted_at is None else [evicted_at])


def test_stale_view_not_adopted(stack):
    _, members = stack
    member = members["a"]
    member.adopt_view(View("g", 5, ("a", "b")))
    member.adopt_view(View("g", 3, ("a",)))  # stale: ignored
    assert member.view_of("g").view_id == 5


# ---------------------------------------------------------------------------
# Membership-service outage amnesty
# ---------------------------------------------------------------------------
@pytest.fixture
def traced_stack(sim, network, trace):
    service = MembershipService(trace=trace)
    network.attach(service)
    members = {}
    for name in ("a", "b", "c"):
        member = Member(name)
        network.attach(member)
        members[name] = member
    return service, members


def test_service_outage_does_not_mass_evict(sim, network, trace, traced_stack):
    """While the membership service itself is down it hears no heartbeats;
    its first sweep back up must grant amnesty, not evict everyone."""
    service, members = traced_stack
    for name in ("a", "b"):
        members[name].join("g")
    sim.run(until=1.0)
    network.crash(service.name)
    # Stay down well past the suspect timeout: every member's last
    # heartbeat is now stale from the service's point of view.
    sim.run(until=4.0)
    network.recover(service.name)
    sim.run(until=4.3)  # one sweep: amnesty, no evictions

    assert set(service.view_of("g").members) == {"a", "b"}
    amnesty = [r for r in trace.filter("membership.amnesty", service.name)]
    assert len(amnesty) == 1
    assert set(amnesty[0].detail["members"]) == {"a", "b"}


def test_amnesty_does_not_resurrect_dead_members(sim, network, traced_stack):
    """Amnesty only resets the clock; a member that stays silent after the
    outage is still evicted one suspect window later."""
    service, members = traced_stack
    for name in ("a", "b"):
        members[name].join("g")
    sim.run(until=1.0)
    network.crash(service.name)
    network.crash("b")  # dies during the outage
    sim.run(until=4.0)
    network.recover(service.name)
    sim.run(until=4.3)
    assert set(service.view_of("g").members) == {"a", "b"}  # amnesty for all
    sim.run(until=6.0)  # b never heartbeats again
    assert set(service.view_of("g").members) == {"a"}


def test_no_amnesty_without_outage(sim, network, trace, traced_stack):
    service, members = traced_stack
    members["a"].join("g")
    sim.run(until=5.0)
    assert not list(trace.filter("membership.amnesty"))
