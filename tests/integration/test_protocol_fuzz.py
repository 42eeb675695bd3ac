"""Property-based protocol fuzzing.

Hypothesis drives randomized scenarios — topology sizes, timing jitter,
client mixes, and crash schedules — and every run must uphold the
protocol's invariants:

* all serving primaries commit the identical update sequence (sequential
  handler) or converge to the same state (causal handler);
* committed GSNs are gap-free and counted exactly once;
* every delivered read is a consistent prefix (value == version stamp for
  the counter app);
* after quiescence plus a few lazy rounds, all live replicas converge.

Runs are kept small (tens of requests) so the whole battery stays fast.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.qos import OrderingGuarantee, QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import LanLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant

FUZZ_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run_sequential_scenario(
    seed, num_primaries, num_secondaries, num_clients, updates_each, crash_p2
):
    config = ServiceConfig(
        name="svc",
        num_primaries=num_primaries,
        num_secondaries=num_secondaries,
        lazy_update_interval=0.5,
        read_service_time=Constant(0.008),
    )
    testbed = build_testbed(
        config,
        seed=seed,
        latency=LanLatency(mean_s=0.001, jitter_s=0.001),
    )
    service = testbed.service
    qos = QoSSpec(staleness_threshold=4, deadline=2.0, min_probability=0.5)
    reads = []

    for i in range(num_clients):
        client = service.create_client(f"c{i}", read_only_methods={"get"})

        def run(client=client, offset=0.003 * i):
            yield Timeout(offset)
            for _ in range(updates_each):
                yield client.call("increment")
                yield Timeout(0.05)
                outcome = yield client.call("get", (), qos)
                reads.append(outcome)
                yield Timeout(0.05)

        Process(testbed.sim, run())

    if crash_p2 and num_secondaries >= 1:
        testbed.sim.schedule_at(1.0, testbed.network.crash, "svc-s1")

    testbed.sim.run(until=300.0)
    testbed.sim.run(until=testbed.sim.now + 2.0)  # quiescent lazy rounds
    return testbed, reads


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_primaries=st.integers(min_value=1, max_value=4),
    num_secondaries=st.integers(min_value=0, max_value=4),
    num_clients=st.integers(min_value=1, max_value=3),
    updates_each=st.integers(min_value=2, max_value=8),
    crash_secondary=st.booleans(),
)
@FUZZ_SETTINGS
def test_sequential_invariants_fuzz(
    seed, num_primaries, num_secondaries, num_clients, updates_each,
    crash_secondary,
):
    testbed, reads = _run_sequential_scenario(
        seed, num_primaries, num_secondaries, num_clients, updates_each,
        crash_secondary,
    )
    service = testbed.service
    total_updates = num_clients * updates_each

    # Identical gap-free commit order on every serving primary.
    histories = {tuple(p.app.history) for p in service.primaries}
    assert len(histories) == 1
    history = next(iter(histories))
    assert list(history) == list(range(1, total_updates + 1))
    assert all(p.my_csn == total_updates for p in service.primaries)

    # Every answered read is a consistent prefix.
    for outcome in reads:
        if outcome.response_time is not None and outcome.value is not None:
            assert outcome.value == outcome.gsn
            assert 0 <= outcome.gsn <= total_updates

    # Quiescent convergence for every live replica.
    for replica in service.primaries + service.secondaries:
        if testbed.network.is_up(replica.name):
            assert replica.app.value == total_updates


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_primaries=st.integers(min_value=1, max_value=3),
    num_clients=st.integers(min_value=1, max_value=3),
    updates_each=st.integers(min_value=2, max_value=6),
)
@FUZZ_SETTINGS
def test_causal_convergence_fuzz(seed, num_primaries, num_clients, updates_each):
    """Causal handler: primaries may commit concurrent updates in different
    orders, but counts and final per-key state must converge."""
    from repro.apps.kvstore import KVStore

    config = ServiceConfig(
        name="svc",
        ordering=OrderingGuarantee.CAUSAL,
        num_primaries=num_primaries,
        num_secondaries=1,
        lazy_update_interval=0.5,
        read_service_time=Constant(0.008),
    )
    testbed = build_testbed(
        config,
        seed=seed,
        latency=LanLatency(mean_s=0.001, jitter_s=0.001),
        app_factory=KVStore,
    )
    service = testbed.service
    for i in range(num_clients):
        client = service.create_client(
            f"w{i}", read_only_methods=set(KVStore.READ_ONLY_METHODS)
        )

        def run(client=client, key=f"k{i}"):
            for j in range(updates_each):
                client.invoke("put", (key, j))
                yield Timeout(0.03)

        Process(testbed.sim, run())

    testbed.sim.run(until=120.0)
    expected = {f"k{i}": updates_each - 1 for i in range(num_clients)}
    for primary in service.primaries:
        assert primary.app.dump() == expected
        assert primary.vc.total() == num_clients * updates_each


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    drop=st.floats(min_value=0.0, max_value=0.25),
)
@FUZZ_SETTINGS
def test_reliability_under_random_loss_fuzz(seed, drop):
    """Any loss rate up to 25 %: the reliable channels must still deliver
    a gap-free commit history."""
    from repro.core.service import ReplicatedService
    from repro.groups.membership import MembershipConfig, MembershipService
    from repro.net.latency import FixedLatency
    from repro.net.network import Network
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry

    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng, FixedLatency(0.001), drop_probability=drop)
    membership = MembershipService(
        config=MembershipConfig(heartbeat_interval=0.2, suspect_timeout=3.0)
    )
    network.attach(membership)
    service = ReplicatedService(
        sim, network, membership, rng,
        ServiceConfig(
            name="svc", num_primaries=2, num_secondaries=1,
            lazy_update_interval=0.5, read_service_time=Constant(0.008),
        ),
    )
    client = service.create_client("c", read_only_methods={"get"})

    def run():
        for _ in range(10):
            yield client.call("increment")
            yield Timeout(0.05)

    Process(sim, run())
    sim.run(until=200.0)
    for primary in service.primaries:
        assert primary.app.history == list(range(1, 11))
