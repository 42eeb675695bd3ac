"""Unit tests for the GroupEndpoint base class."""

import pytest

from repro.groups.group import GroupEndpoint
from repro.groups.membership import HeartbeatMsg, MembershipService, View


class Echo(GroupEndpoint):
    def __init__(self, name):
        super().__init__(name)
        self.got = []
        self.view_log = []

    def on_group_message(self, group, sender, payload):
        self.got.append((group, sender, payload))

    def on_view_change(self, view, previous):
        self.view_log.append((view, previous))


@pytest.fixture
def wired(network):
    service = MembershipService()
    network.attach(service)
    nodes = {}
    for name in ("a", "b", "c"):
        node = Echo(name)
        network.attach(node)
        nodes[name] = node
    return service, nodes


def test_unattached_endpoint_rejects_messaging():
    orphan = Echo("orphan")
    with pytest.raises(RuntimeError):
        orphan.gmcast("g", "x")
    with pytest.raises(RuntimeError):
        orphan.gsend("g", "a", "x")
    with pytest.raises(RuntimeError):
        orphan.fifo_sender
    with pytest.raises(RuntimeError):
        orphan.fifo_receiver


def test_gmcast_returns_recipient_count(sim, wired):
    service, nodes = wired
    for name, node in nodes.items():
        service.register("g", name)
        node.assume_membership("g")
    for node in nodes.values():
        node.adopt_view(service.view_of("g"))
    assert nodes["a"].gmcast("g", "x") == 2


def test_gmcast_empty_view_sends_nothing(sim, wired):
    _, nodes = wired
    assert nodes["a"].gmcast("nonexistent-group", "x") == 0


def test_view_change_hook_receives_previous(sim, wired):
    service, nodes = wired
    a = nodes["a"]
    a.adopt_view(View("g", 1, ("a",)))
    a.adopt_view(View("g", 2, ("a", "b")))
    assert len(a.view_log) == 2
    assert a.view_log[1][1].view_id == 1  # previous view passed through


def test_assume_membership_arms_heartbeats(sim, wired):
    service, nodes = wired
    service.register("g", "a")
    nodes["a"].assume_membership("g")
    sim.run(until=5.0)  # many suspect windows
    assert "a" in service.view_of("g")  # heartbeats kept it alive


def test_heartbeat_payload_is_reused_until_membership_changes(
    sim, network, wired, monkeypatch
):
    """The frozen heartbeat message is built once per joined-set, not per
    beat, and every join/assume/leave is reflected in the next beat."""
    _, nodes = wired
    network.expect_faults()  # beats are on the wire
    a = nodes["a"]
    beats = []
    send = a.send

    def spy(recipient, payload, size_bytes=0):
        if isinstance(payload, HeartbeatMsg):
            beats.append(payload)
        return send(recipient, payload, size_bytes)

    monkeypatch.setattr(a, "send", spy)
    a.assume_membership("g")
    sim.run(until=0.6)
    a.join("h")
    sim.run(until=1.1)
    a.leave("g")
    sim.run(until=1.6)
    assert [beat.groups for beat in beats] == [("g",)] * 2 + [("g", "h")] * 2 + [("h",)] * 2
    assert beats[0] is beats[1] and beats[2] is beats[3] and beats[4] is beats[5]
    assert all(beat.member == "a" for beat in beats)


def test_member_without_assume_is_evicted(sim, wired):
    service, nodes = wired
    service.register("g", "a")  # registered but never assumes membership
    sim.run(until=5.0)
    assert "a" not in service.view_of("g")  # no heartbeats -> evicted


def test_is_member_and_up(sim, network, wired):
    service, nodes = wired
    a = nodes["a"]
    a.adopt_view(View("g", 1, ("a",)))
    assert a.is_member("g")
    assert not a.is_member("other")
    assert a.up
    network.crash("a")
    assert not a.up


def test_rejoining_member_gets_fresh_channels(sim, wired):
    """A member that reappears in a view gets a new channel epoch from
    every peer (the rejoin-unblocking mechanism)."""
    service, nodes = wired
    a, b = nodes["a"], nodes["b"]
    a.adopt_view(View("g", 1, ("a", "b")))
    a.gsend("g", "b", "old")
    # b leaves, then rejoins.
    a.adopt_view(View("g", 2, ("a",)))
    a.adopt_view(View("g", 3, ("a", "b")))
    a.gsend("g", "b", "new")
    sim.run(until=1.0)
    payloads = [p for _, _, p in b.got]
    assert "new" in payloads  # fresh epoch restarted the pair's FIFO