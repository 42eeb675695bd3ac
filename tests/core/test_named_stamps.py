"""Named stamps: the sequencer stamps a read only at the replicas the read
was dispatched to.

A read names its targets (selection, issue-time hedge, probes); the sequencer
sends the ``GsnAssign(advances=False)`` there and draws — and discards — the
delay of every stamp it does not send, so no other variate moves.  A client
that may re-dispatch the read (``retry_policy`` with retries) or runs a
φ-detector names nothing and gets the paper's broadcast.

Where it matters a scenario runs twice: as built, and with the client's reads
forced to ``targets = None`` (the ``broadcast_stamps`` fixture) — the code
before named stamps existed.  What the clients observe must not depend on
which, except where a message used to wait behind a stamp that is no longer
sent (the FIFO-slot tests).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import RetryPolicy
from repro.core.detector import DetectorConfig
from repro.core.qos import QoSSpec
from repro.core.requests import GsnAssign, Request, RequestKind
from repro.core.selection import SelectionResult, SelectionStrategy
from repro.core.service import ServiceConfig, build_testbed
from repro.groups.membership import View
from repro.groups.multicast import GroupDataMsg
from repro.net.latency import FixedLatency
from repro.sim.rng import Constant, Normal

QOS = QoSSpec(staleness_threshold=100, deadline=1.0, min_probability=0.5)
SEQ = "svc-seq"


class Pick(SelectionStrategy):
    """Selects the replicas it was told to."""

    name = "pick"

    def __init__(self, *names):
        self.names = names

    def select(self, candidates, qos, stale_factor):
        return SelectionResult(self.names, 1.0, True)


def make_testbed(num_primaries=4, num_secondaries=28, latency=None, seed=3, **config):
    config.setdefault("read_service_time", Constant(0.010))
    return build_testbed(
        ServiceConfig(
            name="svc",
            num_primaries=num_primaries,
            num_secondaries=num_secondaries,
            **config,
        ),
        seed=seed,
        latency=latency,
    )


def spy_on_stamps(testbed):
    """Every read stamp put on the wire, as ``(time, sender, recipient)``."""
    stamps = []
    send = testbed.network.send

    def spy(sender, recipient, payload, size_bytes=256):
        inner = payload.payload if isinstance(payload, GroupDataMsg) else None
        if isinstance(inner, GsnAssign) and not inner.advances:
            stamps.append((testbed.sim.now, sender, recipient))
        return send(sender, recipient, payload, size_bytes)

    testbed.network.send = spy
    return stamps


def replica_names(testbed):
    service = testbed.service
    return [r.name for r in (*service.primaries, *service.secondaries)]


def link_states(testbed, pairs):
    stream = testbed.rng.stream
    return {(a, b): stream(f"net.link.{a}->{b}").getstate() for a, b in pairs}


# ---------------------------------------------------------------------------
# What a request may name
# ---------------------------------------------------------------------------
def _request(kind=RequestKind.READ, **fields):
    qos = QOS if kind is RequestKind.READ else None
    return Request(1, "c", "get", (), kind, qos, 0.0, **fields)


def test_targets_default_to_none_and_accept_names():
    assert _request().targets is None
    assert _request(targets=("svc-p1", "svc-s2")).targets == ("svc-p1", "svc-s2")


@pytest.mark.parametrize(
    "targets", [(), ("svc-p1", ""), ("svc-p1", "svc-p1")], ids=["empty", "unnamed", "twice"]
)
def test_targets_must_be_distinct_replica_names(targets):
    with pytest.raises(ValueError):
        _request(targets=targets)


def test_an_update_names_no_targets():
    with pytest.raises(ValueError):
        _request(RequestKind.UPDATE, targets=("svc-p1",))
    testbed = make_testbed(2, 2)
    client = testbed.service.create_client("c", read_only_methods={"get"})
    sent = []
    gsend = client.gsend
    client.gsend = lambda g, m, p, s=256: (sent.append(p), gsend(g, m, p, s))
    client.invoke("increment")
    assert sent and all(request.targets is None for request in sent)


# ---------------------------------------------------------------------------
# (i) K stamps on the wire, one variate per link all the same
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "selected",
    [("svc-p2",), ("svc-p1", "svc-s7"), ("svc-s1", "svc-s14", "svc-s28")],
    ids=["K=1", "K=2", "K=3"],
)
def test_one_read_puts_k_stamps_on_the_wire_and_draws_every_link(
    selected, broadcast_stamps
):
    def run(broadcast):
        testbed = make_testbed()
        client = testbed.service.create_client(
            "c", read_only_methods={"get"}, strategy=Pick(*selected)
        )
        if broadcast:
            broadcast_stamps(client)
        stamps = spy_on_stamps(testbed)
        outcomes = []
        client.invoke("get", qos=QOS, callback=outcomes.append)
        replicas = replica_names(testbed)
        before = link_states(testbed, [(r, SEQ) for r in replicas])
        testbed.sim.run(until=2.0)
        assert len(outcomes) == 1 and not outcomes[0].timing_failure
        return testbed, stamps, outcomes[0], before

    named, stamps, outcome, before = run(broadcast=False)
    twin, twin_stamps, twin_outcome, _ = run(broadcast=True)
    replicas = replica_names(named)
    assert len(replicas) == 32

    assert [recipient for _, _, recipient in twin_stamps] == replicas
    assert [recipient for _, _, recipient in stamps] == [
        r for r in replicas if r in selected
    ]
    assert {sender for _, sender, _ in stamps} == {SEQ}
    assert outcome == twin_outcome

    # The stamp not sent still costs its link one variate, and only one.
    out = [(SEQ, r) for r in replicas]
    assert link_states(named, out) == link_states(twin, out)
    fresh = make_testbed()
    assert all(
        state != link_states(fresh, [pair])[pair]
        for pair, state in link_states(named, out).items()
    )
    # Its ack's does not: an unnamed replica has sent the sequencer nothing.
    unnamed = [(r, SEQ) for r in replicas if r not in selected]
    assert link_states(named, unnamed) == {pair: before[pair] for pair in unnamed}
    assert link_states(twin, unnamed) != link_states(named, unnamed)


def test_the_unsent_stamp_is_drawn_from_the_link_as_it_is_now():
    """``set_link`` mid-run is seen: the draw goes through the route table."""

    class CountingLatency(FixedLatency):
        draws = 0

        def delay(self, message, rng):
            CountingLatency.draws += 1
            return super().delay(message, rng)

    testbed = make_testbed(2, 2, latency=FixedLatency(0.001))
    client = testbed.service.create_client(
        "c", read_only_methods={"get"}, strategy=Pick("svc-p1")
    )
    client.invoke("get", qos=QOS)
    testbed.sim.run(until=1.0)
    assert CountingLatency.draws == 0
    testbed.network.set_link(SEQ, "svc-s2", CountingLatency(0.002))
    client.invoke("get", qos=QOS)
    testbed.sim.run(until=2.0)
    assert CountingLatency.draws == 1


# ---------------------------------------------------------------------------
# (iii) binding, the GsnQuery fallback, sequencer failover
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("request_delay", [0.001, 0.010], ids=["request-first", "stamp-first"])
def test_stamp_and_request_bind_in_either_order(request_delay):
    testbed = make_testbed(2, 2, latency=FixedLatency(0.001))
    service = testbed.service
    client = service.create_client(
        "c", read_only_methods={"get"}, strategy=Pick("svc-s1")
    )
    testbed.network.set_link("c", "svc-s1", FixedLatency(request_delay))
    s1 = service.replica_by_name("svc-s1")
    held = []
    bind = s1._bind
    s1._bind = lambda pending, gsn: (
        held.append((testbed.sim.now, bool(s1._awaiting_gsn))), bind(pending, gsn)
    )
    outcomes = []
    client.invoke("get", qos=QOS, callback=outcomes.append)
    testbed.sim.run(until=0.0015)
    # The stamp lands at 2 ms (client -> sequencer -> replica, 1 ms each).
    assert (len(s1._awaiting_gsn) == 1) == (request_delay < 0.002)
    testbed.sim.run(until=1.0)
    assert [at for at, _ in held] == [pytest.approx(max(0.002, request_delay))]
    assert len(outcomes) == 1 and outcomes[0].first_replica == "svc-s1"
    assert not s1._awaiting_gsn
    # Nobody else was told: the stamp is cached where it was sent.
    rid = outcomes[0].request_id
    holders = [r.name for r in service.all_replicas() if rid in r._assignments]
    assert holders == ["svc-s1"]


def test_a_named_replica_outside_the_sequencers_view_asks_for_its_stamp():
    testbed = make_testbed(2, 3, latency=FixedLatency(0.001))
    service = testbed.service
    client = service.create_client(
        "c", read_only_methods={"get"}, strategy=Pick("svc-p1", "svc-s3")
    )
    # The sequencer holds a view without svc-s3; the client's has it.
    group = service.groups.secondary
    sequencer = service.sequencer
    sequencer.adopt_view(
        View(group, sequencer.view_of(group).view_id + 1, ("svc-s1", "svc-s2"))
    )
    stamps = spy_on_stamps(testbed)
    replies = []
    on_reply = client._on_reply
    client._on_reply = lambda reply: (replies.append((testbed.sim.now, reply.replica)), on_reply(reply))
    client.invoke("get", qos=QOS)
    testbed.sim.run(until=2.0)
    wait = service.config.gsn_wait_timeout
    s3 = service.replica_by_name("svc-s3")
    assert s3.gsn_queries_sent.value == 1
    assert service.replica_by_name("svc-p1").gsn_queries_sent.value == 0
    assert [recipient for _, _, recipient in stamps] == ["svc-p1", "svc-s3"]
    assert stamps[1][0] == pytest.approx(0.001 + wait + 0.001)
    assert [replica for _, replica in replies] == ["svc-p1", "svc-s3"]
    assert replies[1][0] > wait
    assert not s3._awaiting_gsn


@pytest.mark.parametrize(
    "crash_at, via_new_leader",
    [(0.0005, True), (0.0015, False)],
    ids=["request-in-flight", "stamp-in-flight"],
)
def test_a_sequencer_crash_around_a_named_stamp_still_resolves_the_read(
    crash_at, via_new_leader
):
    testbed = make_testbed(
        3, 2, latency=FixedLatency(0.001), heartbeat_interval=0.1, suspect_timeout=0.35
    )
    service = testbed.service
    client = service.create_client(
        "c", read_only_methods={"get"}, strategy=Pick("svc-p3")
    )
    outcomes = []

    def read():
        client.invoke("get", qos=QoSSpec(100, 5.0, 0.5), callback=outcomes.append)
        testbed.sim.schedule(crash_at, testbed.network.crash, SEQ)

    testbed.sim.schedule_at(1.0, read)
    testbed.sim.run(until=6.0)
    assert len(outcomes) == 1
    assert outcomes[0].first_replica == "svc-p3" and outcomes[0].value == 0
    p3 = service.replica_by_name("svc-p3")
    assert service.replica_by_name("svc-p1").is_sequencer
    assert not p3._awaiting_gsn
    if via_new_leader:
        # The stamp was never sent: the new leader answered a GsnQuery.
        assert p3.gsn_queries_sent.value >= 1
        assert outcomes[0].response_time > 0.35
    else:
        # Sent before the crash, it lands all the same.
        assert p3.gsn_queries_sent.value == 0
        assert outcomes[0].response_time < 0.1


# ---------------------------------------------------------------------------
# (iv) whoever may read the broadcast keeps it
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "client_args, config, named",
    [
        ({}, {}, True),
        ({"retry_policy": RetryPolicy(max_retries=0, hedge=True)}, {}, True),
        ({"retry_policy": RetryPolicy(max_retries=2, hedge=True)}, {}, False),
        ({"retry_policy": RetryPolicy(max_retries=1)}, {}, False),
        ({}, {"detector": DetectorConfig()}, False),
    ],
    ids=["plain", "hedge-only", "chaos-policy", "overload-policy", "detector"],
)
def test_a_client_that_may_redispatch_or_detects_keeps_the_broadcast(
    client_args, config, named
):
    testbed = make_testbed(**config)
    client = testbed.service.create_client(
        "c", read_only_methods={"get"}, strategy=Pick("svc-s5"), **client_args
    )
    stamps = spy_on_stamps(testbed)
    requests = []
    gsend = client.gsend
    client.gsend = lambda g, m, p, s=256: (requests.append((m, p)), gsend(g, m, p, s))
    client.invoke("get", qos=QoSSpec(100, 1.0, 0.95))
    testbed.sim.run(until=0.1)

    sent_to = [member for member, _ in requests]
    assert sent_to[0] == "svc-s5" and sent_to[-1] == SEQ
    targets = {request.targets for _, request in requests}
    if named:
        # Selection and hedge, never the sequencer itself.
        assert targets == {tuple(sent_to[:-1])}
        assert len(stamps) == len(sent_to) - 1
    else:
        assert targets == {None}
        assert len(stamps) == 32


def test_a_read_with_nobody_to_name_asks_for_the_broadcast():
    testbed = make_testbed(2, 2)
    client = testbed.service.create_client(
        "c", read_only_methods={"get"}, strategy=Pick()
    )
    stamps = spy_on_stamps(testbed)
    client.invoke("get", qos=QOS)
    testbed.sim.run(until=0.1)
    assert len(stamps) == 4


# ---------------------------------------------------------------------------
# (v) an unsent stamp holds no FIFO slot; a sent one still does
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "selected, broadcast, buffered",
    [(("svc-p1",), False, False), (("svc-p2",), False, True), (("svc-p1",), True, True)],
    ids=["overtakes-unnamed", "overtakes-named", "overtakes-broadcast"],
)
def test_an_assignment_waits_only_behind_a_stamp_that_was_sent(
    selected, broadcast, buffered, broadcast_stamps
):
    """The stamp of a read crawls to ``svc-p2`` (5 ms); the link then speeds
    up and an update's assignment, sent 2 ms later, gets there first."""
    testbed = make_testbed(2, 2, latency=FixedLatency(0.001))
    service, network, sim = testbed.service, testbed.network, testbed.sim
    reader = service.create_client(
        "reader", read_only_methods={"get"}, strategy=Pick(*selected)
    )
    if broadcast:
        broadcast_stamps(reader)
    feed = service.create_client("feed")
    p2 = service.replica_by_name("svc-p2")
    handed = []
    on_group_message = p2.on_group_message

    def spy(group, sender, payload):
        if isinstance(payload, GsnAssign):
            handed.append((round(sim.now, 6), payload.advances))
        on_group_message(group, sender, payload)

    p2.on_group_message = spy
    network.set_link(SEQ, "svc-p2", FixedLatency(0.005))
    reader.invoke("get", qos=QOS)  # stamped at 1 ms, at svc-p2 by 6 ms
    sim.schedule_at(0.002, network.set_link, SEQ, "svc-p2", FixedLatency(0.001))
    sim.schedule_at(0.002, feed.invoke, "increment")  # assigned at 3 ms
    sim.run(until=1.0)

    if buffered:
        # FIFO among what is sent is intact: stamp first, then the update.
        assert handed == [(0.006, False), (0.006, True)]
        assert p2.fifo_receiver.reordered == 1
    else:
        assert handed == [(0.004, True)]
        assert p2.fifo_receiver.reordered == 0
    assert p2.my_csn == 1


# ---------------------------------------------------------------------------
# (vi) named and broadcast twins agree on every operation
# ---------------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    num_secondaries=st.integers(0, 12),
    seed=st.integers(0, 2**16),
    schedule=st.lists(
        st.tuples(st.sampled_from("ru"), st.integers(5, 60)), min_size=1, max_size=25
    ),
)
def test_named_and_broadcast_twins_observe_the_same_operations(
    num_secondaries, seed, schedule, broadcast_stamps
):
    """At least 5 ms between sequencer sends, so nothing overtakes anything
    and an unsent stamp's FIFO slot cannot matter."""

    def run(broadcast):
        testbed = make_testbed(
            2,
            num_secondaries,
            seed=seed,
            lazy_update_interval=0.1,
            read_service_time=Normal(0.030, 0.010, floor=0.005),
        )
        client = testbed.service.create_client("c", read_only_methods={"get"})
        if broadcast:
            broadcast_stamps(client)
        outcomes = []
        qos = QoSSpec(staleness_threshold=1, deadline=0.2, min_probability=0.9)
        at = 0.0
        for kind, gap_ms in schedule:
            at += gap_ms / 1000.0
            if kind == "r":
                testbed.sim.schedule_at(
                    at, client.invoke, "get", (), qos, outcomes.append
                )
            else:
                testbed.sim.schedule_at(
                    at, client.invoke, "increment", (), None, outcomes.append
                )
        testbed.sim.run(until=at + 5.0)
        assert len(outcomes) == len(schedule)
        return (
            outcomes,
            testbed.network.messages_sent.value,
        )

    named, named_sent = run(broadcast=False)
    twin, twin_sent = run(broadcast=True)
    assert named == twin
    assert named_sent <= twin_sent
