"""Eviction instants of the failure detector, pinned.

A small group — the membership service and members ``a``, ``b``, ``c`` on a
LAN — meets one fault, and the test records when each member leaves the
service's views.  The instants were recorded while crash detection still ran
as a wire protocol (a beat per member every ``heartbeat_interval``, a sweep
on the same grid evicting whoever was silent for longer than
``suspect_timeout``); the detector must still evict at exactly these
instants, under the default timers and under the campaigns' faster ones.
"""

import pytest

from repro.groups.group import GroupEndpoint
from repro.groups.membership import MembershipConfig, MembershipService
from repro.net.latency import LanLatency
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

MEMBERS = ("a", "b", "c")
CONFIGS = {
    "default": MembershipConfig(),
    "campaign": MembershipConfig(heartbeat_interval=0.1, suspect_timeout=0.35),
}


class Group:
    """The service and three members, each in group ``g`` from t = 0."""

    def __init__(self, config):
        self.sim = Simulator()
        self.network = Network(self.sim, RngRegistry(11), LanLatency())
        self.service = MembershipService(config=config)
        self.network.attach(self.service)
        self.evicted = {}
        self._members = ()
        self.service.observe(self._on_view)
        for name in MEMBERS:
            member = GroupEndpoint(name, heartbeat_interval=config.heartbeat_interval)
            self.network.attach(member)
            self.service.register("g", name)
            member.assume_membership("g")

    def _on_view(self, view):
        for name in self._members:
            if name not in view:
                self.evicted[name] = self.sim.now
        self._members = view.members

    def at(self, when, action, *args, **kwargs):
        self.sim.schedule_at(when, lambda: action(*args, **kwargs))

    def run(self, until=12.0):
        self.sim.run(until=until)
        return self.evicted


def crash_at_phase(config, phase):
    """``c`` crashes ``phase`` beat intervals after its beat due at 2 s (a
    negative phase: before that beat is sent)."""
    group = Group(config)
    group.at(2.0 + phase * config.heartbeat_interval, group.network.crash, "c")
    return group.run()


def crash_and_recover(config):
    """``c`` is down 2.05–2.25 s, recovered well before the sweep that would
    evict it: no eviction."""
    group = Group(config)
    group.at(2.05, group.network.crash, "c")
    group.at(2.25, group.network.recover, "c")
    return group.run()


def symmetric_cut(config, at=3.03):
    group = Group(config)
    group.at(at, group.network.partition, ["c"], ["a", "b", "membership"])
    return group.run()


def oneway_cut(config):
    """Only ``c -> membership`` is blocked; the service still reaches ``c``."""
    group = Group(config)
    group.at(3.03, group.network.partition, ["c"], ["membership"], symmetric=False)
    return group.run()


def reverse_oneway_cut(config):
    """Only ``membership -> c`` is blocked: nothing ``c`` sends is lost."""
    group = Group(config)
    group.at(3.03, group.network.partition, ["membership"], ["c"], symmetric=False)
    return group.run()


def service_outage(config):
    """The service is down 2.02–4.57 s and ``c`` dies at 3.0, inside the
    outage: amnesty keeps everyone, then ``c`` goes one window later."""
    group = Group(config)
    group.at(2.02, group.network.crash, "membership")
    group.at(3.0, group.network.crash, "c")
    group.at(4.57, group.network.recover, "membership")
    return group.run()


CASES = {
    "crash-before-beat": lambda config: crash_at_phase(config, -0.1),
    "crash-beat-in-flight": lambda config: crash_at_phase(config, 0.001),
    "crash-mid-interval": lambda config: crash_at_phase(config, 0.5),
    "crash-and-recover": crash_and_recover,
    "symmetric-cut": symmetric_cut,
    # The beat sent at 3 s is still in flight, and the cut drops it.
    "symmetric-cut-beat-in-flight": lambda config: symmetric_cut(config, 3.00005),
    "oneway-cut": oneway_cut,
    "reverse-oneway-cut": reverse_oneway_cut,
    "service-outage": service_outage,
}

#: ``{member: eviction instant}`` per (case, config), recorded with beats on
#: the wire.
GOLDEN = {
    ("crash-before-beat", "default"): {"c": 3.0},
    ("crash-before-beat", "campaign"): {"c": 2.3000000000000007},
    ("crash-beat-in-flight", "default"): {"c": 3.25},
    ("crash-beat-in-flight", "campaign"): {"c": 2.400000000000001},
    ("crash-mid-interval", "default"): {"c": 3.25},
    ("crash-mid-interval", "campaign"): {"c": 2.400000000000001},
    ("crash-and-recover", "default"): {},
    ("crash-and-recover", "campaign"): {},
    ("symmetric-cut", "default"): {"c": 4.25},
    ("symmetric-cut", "campaign"): {"c": 3.4000000000000017},
    ("symmetric-cut-beat-in-flight", "default"): {"c": 4.0},
    ("symmetric-cut-beat-in-flight", "campaign"): {"c": 3.3000000000000016},
    ("oneway-cut", "default"): {"c": 4.25},
    ("oneway-cut", "campaign"): {"c": 3.4000000000000017},
    ("reverse-oneway-cut", "default"): {},
    ("reverse-oneway-cut", "campaign"): {},
    ("service-outage", "default"): {"c": 6.0},
    ("service-outage", "campaign"): {"c": 4.999999999999998},
}


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("case", list(CASES))
def test_eviction_instants_are_the_beat_detectors(case, config):
    assert CASES[case](CONFIGS[config]) == GOLDEN[(case, config)]
