"""Protocol tests for the causal consistency handler."""

import pytest

from repro.apps.kvstore import KVStore
from repro.core.handlers.causal import CausalStamp
from repro.core.qos import OrderingGuarantee, QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import FixedLatency, LanLatency
from repro.sim.clock import VectorClock
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant


def make_testbed(num_primaries=3, num_secondaries=2, lui=0.5, seed=19,
                 latency=None, app_factory=KVStore):
    config = ServiceConfig(
        name="causal",
        ordering=OrderingGuarantee.CAUSAL,
        num_primaries=num_primaries,
        num_secondaries=num_secondaries,
        lazy_update_interval=lui,
        read_service_time=Constant(0.010),
    )
    return build_testbed(
        config, seed=seed,
        latency=latency or FixedLatency(0.001),
        app_factory=app_factory,
    )


QOS = QoSSpec(staleness_threshold=100, deadline=2.0, min_probability=0.5)
READ_ONLY = set(KVStore.READ_ONLY_METHODS)


# ---------------------------------------------------------------------------
# VectorClock
# ---------------------------------------------------------------------------
def test_vector_clock_basics():
    vc = VectorClock()
    vc.increment("a").increment("a").increment("b")
    assert vc.get("a") == 2 and vc.get("b") == 1 and vc.get("c") == 0
    assert vc.total() == 3


def test_vector_clock_merge_and_dominates():
    a = VectorClock({"x": 2, "y": 1})
    b = VectorClock({"x": 1, "z": 3})
    a.merge(b)
    assert a.as_dict() == {"x": 2, "y": 1, "z": 3}
    assert a.dominates(b)
    assert not b.dominates(a)


def test_vector_clock_copy_independent():
    a = VectorClock({"x": 1})
    b = a.copy()
    a.increment("x")
    assert b.get("x") == 1


def test_vector_clock_equality_ignores_zeros():
    assert VectorClock({"x": 1, "y": 0}) == VectorClock({"x": 1})


def test_vector_clock_negative_rejected():
    with pytest.raises(ValueError):
        VectorClock({"x": -1})


def test_causal_stamp_validation():
    with pytest.raises(ValueError):
        CausalStamp("w", 0, {})


# ---------------------------------------------------------------------------
# Causal delivery
# ---------------------------------------------------------------------------
def test_service_builds_causal_handlers():
    testbed = make_testbed()
    from repro.core.handlers.causal import CausalClientHandler, CausalReplicaHandler

    assert testbed.service.sequencer is None  # no sequencer in causal mode
    assert all(isinstance(p, CausalReplicaHandler) for p in testbed.service.primaries)
    client = testbed.service.create_client("c", read_only_methods=READ_ONLY)
    assert isinstance(client, CausalClientHandler)


def test_single_writer_fifo_order():
    testbed = make_testbed()
    client = testbed.service.create_client("w", read_only_methods=READ_ONLY)

    def run():
        for i in range(10):
            client.invoke("put", ("k", i))
            yield Timeout(0.005)

    Process(testbed.sim, run())
    testbed.sim.run(until=10.0)
    for primary in testbed.service.primaries:
        assert primary.app.get("k") == 9
        assert primary.vc.get("w") == 10


def test_read_then_write_creates_cross_client_dependency():
    """B reads A's write, then writes: every primary must apply B's write
    after A's (the causal memory guarantee)."""
    testbed = make_testbed(latency=LanLatency(mean_s=0.002, jitter_s=0.002))
    service = testbed.service
    a = service.create_client("A", read_only_methods=READ_ONLY)
    b = service.create_client("B", read_only_methods=READ_ONLY)
    order_log = {p.name: [] for p in service.primaries}

    # Spy on commit order through the app state transition.
    def run():
        yield a.call("put", ("x", "from-A"))
        outcome = yield b.call("get", ("x",), QOS)
        # B observed A's write (or not); either way B's next write carries
        # B's current causal context.
        yield b.call("put", ("y", f"B-saw-{outcome.value}"))
        yield Timeout(2.0)

    Process(testbed.sim, run())
    testbed.sim.run(until=20.0)
    for primary in service.primaries:
        # If y is committed, x must be too (y causally follows the read
        # of x when the read returned from-A).
        y = primary.app.get("y")
        if y == "B-saw-from-A":
            assert primary.app.get("x") == "from-A"


def test_dependent_update_waits_for_dependency():
    """An update whose dependency has not arrived is buffered (tested by
    delivering the dependency late through a slow link)."""
    testbed = make_testbed(num_primaries=1, num_secondaries=0)
    service = testbed.service
    primary = service.primaries[0]
    a = service.create_client("A", read_only_methods=READ_ONLY)
    b = service.create_client("B", read_only_methods=READ_ONLY)

    def run():
        yield a.call("put", ("x", 1))
        outcome = yield b.call("get", ("x",), QOS)
        assert outcome.value == 1
        yield b.call("put", ("y", 2))

    Process(testbed.sim, run())
    testbed.sim.run(until=10.0)
    assert primary.app.get("y") == 2
    assert primary.vc.get("A") == 1 and primary.vc.get("B") == 1


def test_concurrent_updates_may_differ_in_order_but_converge():
    """Independent writers commit in possibly different orders, but the
    final state (last-writer-wins per key here: different keys) matches."""
    testbed = make_testbed(latency=LanLatency(mean_s=0.002, jitter_s=0.002))
    service = testbed.service
    clients = [
        service.create_client(f"w{i}", read_only_methods=READ_ONLY)
        for i in range(3)
    ]

    def spam(client, key, gap):
        for i in range(10):
            client.invoke("put", (key, i))
            yield Timeout(gap)

    for i, client in enumerate(clients):
        Process(testbed.sim, spam(client, f"k{i}", 0.011 + 0.003 * i))
    testbed.sim.run(until=20.0)
    for primary in service.primaries:
        assert primary.app.dump() == {"k0": 9, "k1": 9, "k2": 9}
        assert primary.vc.total() == 30


def test_read_your_writes_via_deferred_read():
    """A client that just wrote must never read a state missing its write,
    even from a stale secondary — the read defers until the lazy update."""
    testbed = make_testbed(num_primaries=1, num_secondaries=1, lui=0.5)
    service = testbed.service
    secondary = service.secondaries[0]
    client = service.create_client("w", read_only_methods=READ_ONLY)

    from repro.core.selection import SelectionResult, SelectionStrategy

    class SecondariesOnly(SelectionStrategy):
        def select(self, candidates, qos, stale_factor):
            names = tuple(c.name for c in candidates if not c.is_primary)
            return SelectionResult(names, 1.0, True)

    reader = service.create_client(
        "r", read_only_methods=READ_ONLY, strategy=SecondariesOnly()
    )
    outcomes = []

    def run():
        yield client.call("put", ("k", "v1"))
        # Propagate the writer's causal context to the reader out of band
        # (as if the same user session spans both handlers).
        reader.vc.merge(client.vc)
        outcome = yield reader.call("get", ("k",), QOS)
        outcomes.append(outcome)

    Process(testbed.sim, run())
    testbed.sim.run(until=20.0)
    assert outcomes[0].value == "v1"  # never a stale miss
    assert outcomes[0].deferred or secondary.vc.get("w") >= 1


def test_lazy_update_adopted_only_when_dominating():
    testbed = make_testbed(num_primaries=1, num_secondaries=1, lui=0.5)
    secondary = testbed.service.secondaries[0]
    from repro.core.requests import LazyUpdate

    secondary.vc = VectorClock({"w": 5})
    stale = LazyUpdate("p", 1, 3, ({"_data": {}, "_mutations": 3}, {"w": 3}))
    secondary._on_lazy_update(stale)
    assert secondary.vc.get("w") == 5  # not regressed


def test_replies_carry_vector_clock_context():
    testbed = make_testbed(num_primaries=1, num_secondaries=0)
    client = testbed.service.create_client("w", read_only_methods=READ_ONLY)
    outcomes = []

    def run():
        yield client.call("put", ("k", 1))
        outcome = yield client.call("get", ("k",), QOS)
        outcomes.append(outcome)

    Process(testbed.sim, run())
    testbed.sim.run(until=5.0)
    assert outcomes[0].gsn == 1  # vector total as version number
    assert client.vc.get("w") == 1


def test_non_causal_client_update_rejected_by_replica():
    """A plain ClientHandler's updates (no CausalStamp) are a wiring bug
    the replica surfaces loudly."""
    testbed = make_testbed(num_primaries=1, num_secondaries=0)
    primary = testbed.service.primaries[0]
    from repro.core.requests import Request, RequestKind

    request = Request(1, "c", "put", ("k", 1), RequestKind.UPDATE, None, 0.0)
    with pytest.raises(TypeError):
        primary._on_request(request)
