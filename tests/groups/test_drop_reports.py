"""Drop-driven retransmission, end to end over the fabric.

The fabric hands every group transmission it drops back to its sender, and
the sender resends it at ``sent_at + RTO · 1.5**k`` (its k-th resend), or at
once when the drop is only seen later, at arrival.  Whatever took the
message — random loss, a cut, a crashed recipient — the recipient is handed
every message once and in order, and a member evicted meanwhile is sent no
resend.

Mutant these tests kill: a sender that ignores the drop report
(``test_a_sender_that_ignores_drop_reports_fails_every_scenario``).
"""

import pytest

from repro.groups.group import GroupEndpoint
from repro.groups.membership import MembershipService
from repro.groups.multicast import RTO, FifoSender, GroupDataMsg
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

DELAY = 0.001
BACKOFF = 1.5


class SpyNetwork(Network):
    """Records every group transmission sent and every one dropped."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = []  # fabric messages carrying GroupDataMsg
        self.lost = []

    def send(self, sender, recipient, payload, size_bytes=256):
        message = super().send(sender, recipient, payload, size_bytes)
        if isinstance(payload, GroupDataMsg):
            self.sent.append(message)
        return message

    def _drop(self, message, reason):
        if isinstance(message.payload, GroupDataMsg):
            self.lost.append((self.sim.now, message))
        super()._drop(message, reason)


class Member(GroupEndpoint):
    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def on_group_message(self, group, sender, payload):
        self.got.append(payload)


class Group:
    """The service and members a, b, c; ``a`` sends 0..n-1 to the others,
    one every 20 ms from t = 0.1."""

    def __init__(self, n=40):
        self.sim = Simulator()
        self.network = SpyNetwork(self.sim, RngRegistry(5), FixedLatency(DELAY))
        self.service = MembershipService()
        self.network.attach(self.service)
        self.members = {}
        for name in ("a", "b", "c"):
            member = self.members[name] = Member(name)
            self.network.attach(member)
            member.assume_membership("g")
            self.service.register("g", name)
        for member in self.members.values():
            member.adopt_view(self.service.view_of("g"))
        self.n = n
        for i in range(n):
            self.sim.schedule_at(0.1 + 0.02 * i, self.members["a"].gmcast, "g", i)

    def at(self, when, action, *args):
        self.sim.schedule_at(when, lambda: action(*args))

    def run(self, until=8.0):
        self.sim.run(until=until)
        return self

    def resend_times_hold(self):
        """Every drop of ``a``'s was resent at its deadline — or, when the
        drop was seen after that, at the drop — unless the recipient had
        left the view by then."""
        resends = {
            (m.recipient, m.payload.seq, m.payload.epoch, m.payload.attempt): m.sent_at
            for m in self.network.sent
        }
        checked = 0
        for seen, lost in self.network.lost:
            data = lost.payload
            deadline = max(seen, lost.sent_at + RTO * BACKOFF**data.attempt)
            key = (lost.recipient, data.seq, data.epoch, data.attempt + 1)
            if lost.recipient not in self.service.view_of("g"):
                continue
            assert resends.get(key) == pytest.approx(deadline), key
            checked += 1
        return checked


def random_loss():
    group = Group()
    group.at(0.2, setattr, group.network, "drop_probability", 0.3)
    group.at(0.6, setattr, group.network, "drop_probability", 0.0)
    return group.run()


def cut():
    group = Group()
    cut = []
    group.at(0.25, lambda: cut.append(group.network.partition(["a"], ["b"])))
    group.at(0.55, lambda: group.network.heal_partition(cut[0]))
    return group.run()


def crashed_recipient():
    """``b`` is down 0.3 s, well inside the 1 s suspect timeout."""
    group = Group()
    group.at(0.25, group.network.crash, "b")
    group.at(0.55, group.network.recover, "b")
    return group.run()


SCENARIOS = {"random-loss": random_loss, "cut": cut, "crashed-recipient": crashed_recipient}


def check_recovers(scenario):
    group = SCENARIOS[scenario]()
    assert group.network.lost, "the scenario dropped nothing"
    assert group.resend_times_hold() > 0
    for name in ("b", "c"):
        assert group.members[name].got == list(range(group.n)), name


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_a_dropped_message_is_resent_at_its_deadline_and_delivered_once_in_order(
    scenario,
):
    check_recovers(scenario)


def check_evicted_member_gets_no_resend():
    """``c`` dies for good at 0.25 s and is evicted at the sweep that finds
    it unheard for 1 s; ``a`` keeps resending to it until then, and not
    after."""
    group = Group()
    group.at(0.25, group.network.crash, "c")
    group.run()
    assert group.service.view_of("g").members == ("a", "b")
    resends = [
        m.sent_at
        for m in group.network.sent
        if m.recipient == "c" and m.payload.attempt
    ]
    evicted_at = 1.5  # its last beat, sent at 0.25 s, landed 1 ms later
    assert resends and max(resends) < evicted_at
    assert group.members["b"].got == list(range(group.n))


def test_a_member_evicted_meanwhile_gets_no_resend():
    check_evicted_member_gets_no_resend()


def test_a_sender_that_ignores_drop_reports_fails_every_scenario(monkeypatch):
    monkeypatch.setattr(FifoSender, "on_ack", lambda self, dropped: None)
    for scenario in SCENARIOS:
        with pytest.raises(AssertionError):
            check_recovers(scenario)
    with pytest.raises(AssertionError):
        check_evicted_member_gets_no_resend()
