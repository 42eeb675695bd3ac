"""Unit tests for the network fabric."""

import pytest

from repro.net.chaos import ChaosEngine, ChaosTargets
from repro.net.failures import FailureInjector
from repro.net.latency import FixedLatency, LanLatency
from repro.net.message import Message
from repro.net.network import Endpoint, LinkChurn, Network, NetworkError
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


class Sink(Endpoint):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def deliver(self, message):
        self.received.append((self.now, message))


@pytest.fixture
def pair(network):
    a, b = Sink("a"), Sink("b")
    network.attach(a)
    network.attach(b)
    return a, b


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------
def test_message_ids_are_unique():
    """Each fabric numbers what it sends from 1; a message no fabric sent
    (a stand-in handed to a latency model) takes no id."""
    for _ in range(2):
        network = Network(Simulator(), RngRegistry(0), FixedLatency(0.001))
        a, b = Sink("a"), Sink("b")
        network.attach(a)
        network.attach(b)
        assert Message("a", "b", None, 0.0).msg_id == 0
        sent = [a.send("b", i) for i in range(3)] + [b.send("ghost", 3)]
        assert [m.msg_id for m in sent] == [1, 2, 3, 4]


def test_message_kind_is_payload_type():
    msg = Message("a", "b", {"x": 1}, 0.0)
    assert msg.kind == "dict"


def test_message_rejects_negative_size():
    with pytest.raises(ValueError):
        Message("a", "b", None, 0.0, size_bytes=-1)


# ---------------------------------------------------------------------------
# Delivery
# ---------------------------------------------------------------------------
def test_unicast_delivers_after_latency(sim, pair):
    a, b = pair
    a.send("b", "hello")
    sim.run()
    assert len(b.received) == 1
    arrival, message = b.received[0]
    assert arrival == pytest.approx(0.001)
    assert message.payload == "hello"
    assert message.sender == "a"


def test_multicast_excludes_sender(sim, network, pair):
    a, b = pair
    c = Sink("c")
    network.attach(c)
    a.multicast(["a", "b", "c"], "fanout")
    sim.run()
    assert len(a.received) == 0
    assert len(b.received) == 1
    assert len(c.received) == 1


def test_per_link_latency_override(sim, network, pair):
    a, b = pair
    network.set_link("a", "b", FixedLatency(0.5))
    a.send("b", "slow")
    b.send("a", "fast")
    sim.run()
    assert b.received[0][0] == pytest.approx(0.5)
    assert a.received[0][0] == pytest.approx(0.001)


def test_symmetric_link_override(sim, network, pair):
    a, b = pair
    network.set_symmetric_link("a", "b", FixedLatency(0.25))
    a.send("b", 1)
    b.send("a", 2)
    sim.run()
    assert b.received[0][0] == pytest.approx(0.25)
    assert a.received[0][0] == pytest.approx(0.25)


def test_fifo_on_deterministic_link(sim, pair):
    a, b = pair
    for i in range(10):
        a.send("b", i)
    sim.run()
    assert [m.payload for _, m in b.received] == list(range(10))


def test_stats_counters(sim, network, pair):
    a, b = pair
    a.send("b", 1)
    a.send("nonexistent", 2)
    sim.run()
    assert network.messages_sent.value == 2
    assert network.messages_delivered.value == 1
    assert network.messages_dropped.value == 1


# ---------------------------------------------------------------------------
# Attach/detach validation
# ---------------------------------------------------------------------------
def test_duplicate_attach_rejected(network, pair):
    with pytest.raises(NetworkError):
        network.attach(Sink("a"))


def test_send_from_unattached_endpoint_rejected():
    orphan = Sink("orphan")
    with pytest.raises(NetworkError):
        orphan.send("x", 1)
    with pytest.raises(NetworkError):
        orphan.sim
    with pytest.raises(NetworkError):
        orphan.now


def test_unknown_sender_rejected(network, pair):
    with pytest.raises(NetworkError):
        network.send("ghost", "a", 1)


def test_send_to_unknown_recipient_is_dropped(sim, network, pair):
    a, _ = pair
    a.send("ghost", 1)
    sim.run()
    assert network.messages_dropped.value == 1


def test_endpoint_lookup(network, pair):
    a, _ = pair
    assert network.endpoint("a") is a
    with pytest.raises(NetworkError):
        network.endpoint("ghost")
    assert network.endpoints() == ["a", "b"]


# ---------------------------------------------------------------------------
# Crashes
# ---------------------------------------------------------------------------
def test_crashed_sender_drops_messages(sim, network, pair):
    a, b = pair
    network.crash("a")
    a.send("b", 1)
    sim.run()
    assert b.received == []
    assert not network.is_up("a")


def test_crashed_recipient_drops_messages(sim, network, pair):
    a, b = pair
    network.crash("b")
    a.send("b", 1)
    sim.run()
    assert b.received == []


def test_crash_loses_in_flight_messages(sim, network, pair):
    a, b = pair
    a.send("b", "in-flight")
    # Crash strictly before the 1 ms delivery completes.
    sim.schedule(0.0005, network.crash, "b")
    sim.run()
    assert b.received == []


def test_recovery_restores_delivery(sim, network, pair):
    a, b = pair
    network.crash("b")
    a.send("b", "lost")
    sim.run()
    network.recover("b")
    a.send("b", "found")
    sim.run()
    assert [m.payload for _, m in b.received] == ["found"]


def test_crash_unknown_endpoint_rejected(network):
    with pytest.raises(NetworkError):
        network.crash("ghost")


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------
def test_partition_blocks_both_directions(sim, network, pair):
    a, b = pair
    network.partition({"a"}, {"b"})
    a.send("b", 1)
    b.send("a", 2)
    sim.run()
    assert a.received == [] and b.received == []


def test_partition_does_not_block_same_side(sim, network, pair):
    a, b = pair
    c = Sink("c")
    network.attach(c)
    network.partition({"a", "b"}, {"c"})
    a.send("b", 1)
    sim.run()
    assert len(b.received) == 1


def test_partition_cuts_in_flight_messages(sim, network, pair):
    a, b = pair
    a.send("b", 1)
    sim.schedule(0.0005, network.partition, {"a"}, {"b"})
    sim.run()
    assert b.received == []


def test_heal_restores_traffic(sim, network, pair):
    a, b = pair
    network.partition({"a"}, {"b"})
    network.heal_partitions()
    a.send("b", 1)
    sim.run()
    assert len(b.received) == 1


# ---------------------------------------------------------------------------
# Random loss
# ---------------------------------------------------------------------------
def test_drop_probability_loses_some_messages(sim, rng, trace):
    from repro.net.network import Network

    lossy = Network(sim, rng, FixedLatency(0.001), trace=trace, drop_probability=0.5)
    a, b = Sink("a"), Sink("b")
    lossy.attach(a)
    lossy.attach(b)
    for i in range(200):
        a.send("b", i)
    sim.run()
    assert 0 < len(b.received) < 200
    # Delivered messages keep their relative order on a deterministic link.
    payloads = [m.payload for _, m in b.received]
    assert payloads == sorted(payloads)


def test_invalid_drop_probability_rejected(sim, rng):
    from repro.net.network import Network

    with pytest.raises(ValueError):
        Network(sim, rng, FixedLatency(0.001), drop_probability=1.0)


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
def test_drop_probability_is_checked_on_every_write(network, bad):
    """Fault injectors write it mid-run; a value the constructor would
    refuse must not get in that way (1.5 used to drop every message)."""
    network.drop_probability = 0.25
    with pytest.raises(ValueError):
        network.drop_probability = bad
    assert network.drop_probability == 0.25


# ---------------------------------------------------------------------------
# The fault-free fact
# ---------------------------------------------------------------------------
_FIRST_FAULTS = {
    "crash": lambda net: net.crash("a"),
    "partition": lambda net: net.partition({"a"}, {"b"}),
    "drop-probability": lambda net: setattr(net, "drop_probability", 0.1),
    "churn": lambda net: net.set_churn("a", "b", LinkChurn(reorder_probability=0.5)),
    "degrade-node": lambda net: net.degrade_node("a", factor=2.0),
    "degrade-link": lambda net: net.degrade_link("a", "b", factor=2.0),
    "detach": lambda net: net.detach("b"),
    "expect-faults": lambda net: net.expect_faults(),
    "failure-injector": lambda net: FailureInjector(net),
    "chaos-engine": lambda net: ChaosEngine(net, ChaosTargets(primaries=("a", "b"))),
    # Re-wiring counts once someone has judged the links as they were.
    "set-link": lambda net: net.set_link("a", "b", FixedLatency(0.5)),
}


@pytest.mark.parametrize("fault", sorted(_FIRST_FAULTS))
def test_first_fault_is_announced_once_and_before_it_applies(network, pair, fault):
    seen = []

    def on_first_fault():
        # Nothing has been applied yet: the world is still whole.
        seen.append(
            (
                network.fault_free,
                network.is_up("a"),
                network.endpoints(),
                network.active_partitions(),
                network.drop_probability,
                network.is_degraded("a"),
                network.latency_for("a", "b") is network.default_latency,
            )
        )

    assert network.fault_free
    network.on_first_fault(on_first_fault)
    _FIRST_FAULTS[fault](network)
    assert seen == [(False, True, ["a", "b"], [], 0.0, False, True)]
    assert not network.fault_free
    network.crash("a")  # a later fault: nothing more to announce
    network.recover("a")
    assert len(seen) == 1 and not network.fault_free
    with pytest.raises(NetworkError):
        network.on_first_fault(on_first_fault)


def test_setup_and_healthy_operation_keep_the_fabric_fault_free(sim, network, pair):
    a, b = pair
    network.set_link("a", "b", FixedLatency(0.5))  # nobody relies on it yet
    network.drop_probability = 0.0
    network.clear_churn()
    network.clear_degradations()
    network.heal_partitions()
    a.send("b", "x")
    sim.run()
    assert len(b.received) == 1
    assert network.fault_free


def test_fabric_built_lossy_never_was_fault_free(sim, rng):
    assert not Network(sim, rng, FixedLatency(0.001), drop_probability=0.1).fault_free


# ---------------------------------------------------------------------------
# Named and asymmetric partitions
# ---------------------------------------------------------------------------
def test_named_cuts_coexist_and_heal_individually(sim, network, pair):
    a, b = pair
    c = Sink("c")
    network.attach(c)
    network.partition(["a"], ["b"], name="ab")
    network.partition(["a"], ["c"], name="ac")
    assert network.active_partitions() == ["ab", "ac"]
    assert network.heal_partition("ab")
    a.send("b", 1)
    a.send("c", 2)
    sim.run()
    assert len(b.received) == 1
    assert len(c.received) == 0  # "ac" still cuts
    assert not network.heal_partition("ab")  # already healed


def test_duplicate_partition_name_rejected(network, pair):
    network.partition(["a"], ["b"], name="dup")
    with pytest.raises(NetworkError):
        network.partition(["a"], ["b"], name="dup")


def test_oneway_partition_blocks_single_direction(sim, network, pair):
    a, b = pair
    network.partition(["a"], ["b"], name="one-way", symmetric=False)
    a.send("b", "blocked")
    b.send("a", "flows")
    sim.run()
    assert len(b.received) == 0
    assert len(a.received) == 1


# ---------------------------------------------------------------------------
# Gray degradation
# ---------------------------------------------------------------------------
def test_degrade_node_slows_both_directions(sim, network, pair):
    a, b = pair
    network.degrade_node("b", factor=100.0)
    a.send("b", "in")
    b.send("a", "out")
    sim.run()
    assert b.received[0][0] == pytest.approx(0.1)
    assert a.received[0][0] == pytest.approx(0.1)
    assert network.is_degraded("b")


def test_restore_node_returns_to_base_latency(sim, network, pair):
    a, b = pair
    network.degrade_node("b", factor=100.0)
    assert network.restore_node("b")
    assert not network.restore_node("b")
    a.send("b", 1)
    sim.run()
    assert b.received[0][0] == pytest.approx(0.001)


def test_degrade_link_is_directed(sim, network, pair):
    a, b = pair
    network.degrade_link("a", "b", factor=50.0)
    a.send("b", "slow")
    b.send("a", "fast")
    sim.run()
    assert b.received[0][0] == pytest.approx(0.05)
    assert a.received[0][0] == pytest.approx(0.001)


def test_degradations_stack_multiplicatively(sim, network, pair):
    a, b = pair
    network.degrade_node("a", factor=10.0)
    network.degrade_node("b", factor=10.0)
    a.send("b", 1)
    sim.run()
    assert b.received[0][0] == pytest.approx(0.1)


def test_degrade_rejects_bad_severity(network, pair):
    with pytest.raises(ValueError):
        network.degrade_node("a", factor=0.5)
    with pytest.raises(ValueError):
        network.degrade_link("a", "b", factor=1.0, jitter_s=-0.1)
    with pytest.raises(NetworkError):
        network.degrade_node("ghost", factor=2.0)


def test_clear_degradations_restores_everything(sim, network, pair):
    a, b = pair
    network.degrade_node("a", factor=10.0)
    network.degrade_link("a", "b", factor=10.0)
    network.clear_degradations()
    assert not network.is_degraded("a")
    a.send("b", 1)
    sim.run()
    assert b.received[0][0] == pytest.approx(0.001)


# ---------------------------------------------------------------------------
# Link churn: duplication and reordering
# ---------------------------------------------------------------------------
def test_churn_validation():
    from repro.net.network import LinkChurn

    with pytest.raises(ValueError):
        LinkChurn(duplicate_probability=1.5)
    with pytest.raises(ValueError):
        LinkChurn(reorder_probability=-0.1)
    with pytest.raises(ValueError):
        LinkChurn(extra_delay=(0.5, 0.1))


def test_churn_duplicates_messages(sim, network, pair):
    from repro.net.network import LinkChurn

    a, b = pair
    network.set_churn("a", "b", LinkChurn(duplicate_probability=1.0))
    a.send("b", "twice")
    sim.run()
    assert [m.payload for _, m in b.received] == ["twice", "twice"]
    assert network.metrics.counter("net_messages_duplicated").value == 1


def test_churn_reorders_messages(sim, network, pair):
    from repro.net.network import LinkChurn

    a, b = pair
    network.set_churn(
        "a", "b",
        LinkChurn(reorder_probability=1.0, extra_delay=(0.05, 0.05)),
    )
    a.send("b", "first-sent")
    network.clear_churn("a", "b")
    a.send("b", "second-sent")
    sim.run()
    # The delayed first message is overtaken by the second.
    assert [m.payload for _, m in b.received] == ["second-sent", "first-sent"]


def test_churn_wildcard_precedence(sim, network, pair):
    from repro.net.network import LinkChurn

    a, b = pair
    network.set_churn("*", "*", LinkChurn(duplicate_probability=1.0))
    network.set_churn("a", "b", LinkChurn(duplicate_probability=0.0))
    a.send("b", "exact-pair-wins")
    sim.run()
    assert len(b.received) == 1
    network.clear_churn()
    a.send("b", "all-clear")
    sim.run()
    assert len(b.received) == 2


def test_churn_off_leaves_rng_schedule_untouched(trace):
    """The churn stream is only consumed when a matching rule exists, so
    configuring churn for an idle pair must not shift delivery timing of
    other traffic (bit-identical replay guarantee)."""
    from repro.net.latency import LanLatency
    from repro.net.network import LinkChurn, Network
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry

    def run(with_idle_churn):
        sim = Simulator()
        net = Network(sim, RngRegistry(4242), LanLatency(0.002, 0.002))
        a, b, c = Sink("a"), Sink("b"), Sink("c")
        for ep in (a, b, c):
            net.attach(ep)
        if with_idle_churn:
            net.set_churn(
                "b", "c", LinkChurn(duplicate_probability=0.9,
                                    reorder_probability=0.9)
            )
        for i in range(50):
            a.send("b", i)
        sim.run()
        return [(t, m.payload) for t, m in b.received]

    assert run(False) == run(True)


# ---------------------------------------------------------------------------
# Route cache: every fault bites the very next message, and undoing it
# hands the link back its original delay stream
# ---------------------------------------------------------------------------
def _jittery_pair():
    sim = Simulator()
    net = Network(sim, RngRegistry(99), LanLatency(0.002, 0.001))
    a, b = Sink("a"), Sink("b")
    net.attach(a)
    net.attach(b)
    return sim, net, a, b


def _delays_of_next_send(sim, a, b):
    """Send one message a -> b, drain, return the delay of each copy."""
    seen = len(b.received)
    a.send("b", "probe")
    sim.run()
    return [t - m.sent_at for t, m in b.received[seen:]]


# name -> (inject, undo, copies delivered, link-stream draws used, delay
# of the faulted message as a function of the undisturbed draw)
_ROUTE_FAULTS = {
    "crash-sender": (
        lambda net, b: net.crash("a"), lambda net, b: net.recover("a"),
        0, 0, None,
    ),
    "crash-recipient": (  # lost at arrival: the latency was already drawn
        lambda net, b: net.crash("b"), lambda net, b: net.recover("b"),
        0, 1, None,
    ),
    "partition": (
        lambda net, b: net.partition({"a"}, {"b"}, name="cut"),
        lambda net, b: net.heal_partition("cut"),
        0, 0, None,
    ),
    "partition-one-way": (
        lambda net, b: net.partition({"a"}, {"b"}, name="cut", symmetric=False),
        lambda net, b: net.heal_partition("cut"),
        0, 0, None,
    ),
    "drop-probability": (
        lambda net, b: setattr(net, "drop_probability", 0.999999),
        lambda net, b: setattr(net, "drop_probability", 0.0),
        0, 0, None,
    ),
    "churn": (
        lambda net, b: net.set_churn("a", "b", LinkChurn(duplicate_probability=1.0)),
        lambda net, b: net.clear_churn("a", "b"),
        2, 1, lambda drawn: drawn,
    ),
    "degrade-node": (
        lambda net, b: net.degrade_node("a", factor=3.0),
        lambda net, b: net.restore_node("a"),
        1, 1, lambda drawn: 3.0 * drawn,
    ),
    "degrade-link": (
        lambda net, b: net.degrade_link("a", "b", factor=3.0),
        lambda net, b: net.clear_degradations(),
        1, 1, lambda drawn: 3.0 * drawn,
    ),
    "set-link": (  # a constant model draws nothing
        lambda net, b: net.set_link("a", "b", FixedLatency(0.5)),
        lambda net, b: net.set_link("a", "b", net.default_latency),
        1, 0, lambda drawn: 0.5,
    ),
    "detach": (
        lambda net, b: net.detach("b"), lambda net, b: net.attach(b),
        0, 0, None,
    ),
}


@pytest.mark.parametrize("fault", sorted(_ROUTE_FAULTS))
def test_fault_after_traffic_bites_next_message_and_undo_restores_stream(fault):
    inject, undo, copies, draws, faulted_delay = _ROUTE_FAULTS[fault]
    warm = 5  # traffic has flowed: the a -> b route is resolved and cached

    sim, _, a, b = _jittery_pair()
    undisturbed = [_delays_of_next_send(sim, a, b)[0] for _ in range(warm + 3)]
    assert len(set(undisturbed)) == len(undisturbed)  # the link does jitter

    sim, net, a, b = _jittery_pair()
    for i in range(warm):
        assert _delays_of_next_send(sim, a, b) == [pytest.approx(undisturbed[i], abs=1e-12)]

    inject(net, b)
    got = _delays_of_next_send(sim, a, b)
    assert len(got) == copies
    if copies:
        assert got[0] == pytest.approx(faulted_delay(undisturbed[warm]), abs=1e-12)

    undo(net, b)
    for i in (warm + draws, warm + draws + 1):
        assert _delays_of_next_send(sim, a, b) == [pytest.approx(undisturbed[i], abs=1e-12)]


def test_one_way_cut_leaves_the_reverse_route_flowing(sim, network, pair):
    a, b = pair
    a.send("b", "warm")
    b.send("a", "warm")
    sim.run()
    network.partition({"a"}, {"b"}, symmetric=False)
    a.send("b", "blocked")
    b.send("a", "flows")
    sim.run()
    assert [m.payload for _, m in b.received] == ["warm"]
    assert [m.payload for _, m in a.received] == ["warm", "flows"]
