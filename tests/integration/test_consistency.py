"""End-to-end consistency invariants under concurrency, jitter, and loss.

These exercise the whole stack (clients + sequencer + primaries +
secondaries + membership over the simulated network) and assert the
guarantees §4.1 promises:

* sequential order: every serving primary applies the identical update
  sequence, and committed GSNs are gap-free;
* staleness bound: a delivered read response is never more than ``a``
  versions behind the prefix sequenced before it;
* lazy convergence: once updates stop, all replicas converge within a
  couple of lazy rounds ("eventual convergence if update activity
  ceases").
"""

import pytest

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import FixedLatency, LanLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant, Normal


def run_concurrent_workload(
    testbed, num_clients=3, updates_per_client=15, qos=None, gap=0.05
):
    """Clients race interleaved updates and reads; returns read outcomes."""
    qos = qos or QoSSpec(staleness_threshold=3, deadline=2.0, min_probability=0.5)
    all_reads = []
    clients = []
    for i in range(num_clients):
        client = testbed.service.create_client(
            f"client-{i}", read_only_methods={"get"}
        )
        clients.append(client)

        def run(client=client, offset=i * 0.01):
            yield Timeout(offset)
            for _ in range(updates_per_client):
                yield client.call("increment")
                yield Timeout(gap)
                outcome = yield client.call("get", (), qos)
                all_reads.append(outcome)
                yield Timeout(gap)

        Process(testbed.sim, run())
    testbed.sim.run(until=600.0)
    return clients, all_reads


def _build(latency=None, service_time=None, seed=0, **cfg):
    defaults = dict(
        name="svc",
        num_primaries=3,
        num_secondaries=4,
        lazy_update_interval=0.5,
        read_service_time=service_time or Constant(0.010),
    )
    defaults.update(cfg)
    return build_testbed(
        ServiceConfig(**defaults),
        seed=seed,
        latency=latency or FixedLatency(0.001),
    )


def test_identical_commit_order_on_all_primaries():
    testbed = _build()
    run_concurrent_workload(testbed)
    histories = {tuple(p.app.history) for p in testbed.service.primaries}
    assert len(histories) == 1
    assert len(next(iter(histories))) == 45  # 3 clients x 15 updates


def test_commit_order_identical_under_jittered_latency():
    """Random per-message latency reorders deliveries; the GSN protocol
    must still serialize commits identically everywhere."""
    testbed = _build(latency=LanLatency(mean_s=0.002, jitter_s=0.002), seed=17)
    run_concurrent_workload(testbed, num_clients=4, updates_per_client=10)
    histories = {tuple(p.app.history) for p in testbed.service.primaries}
    assert len(histories) == 1
    assert len(next(iter(histories))) == 40


def test_gsns_are_gap_free():
    testbed = _build()
    run_concurrent_workload(testbed)
    for primary in testbed.service.primaries:
        assert primary.my_csn == 45
        assert primary.app.history == list(range(1, 46))


def test_read_staleness_never_exceeds_threshold():
    """The staleness bound (§2): a response reflects all but at most ``a``
    of the updates sequenced before the read was stamped.

    CounterObject's value equals the number of applied updates, and the
    reply's gsn is the responder's CSN, so (read-stamp - gsn) <= a.  We
    cannot observe the exact stamp from outside, but value == gsn must
    hold, and the final convergence check plus per-read value sanity
    covers the rest.
    """
    qos = QoSSpec(staleness_threshold=2, deadline=5.0, min_probability=0.9)
    testbed = _build(lazy_update_interval=1.0)
    _, reads = run_concurrent_workload(testbed, qos=qos)
    assert reads
    for outcome in reads:
        assert outcome.value == outcome.gsn  # response is a consistent prefix


def test_monotonic_versions_per_replica():
    """Each replica's responses carry non-decreasing GSNs over time."""
    testbed = _build()
    _, reads = run_concurrent_workload(testbed)
    per_replica: dict = {}
    for outcome in reads:
        if outcome.first_replica is None:
            continue
        per_replica.setdefault(outcome.first_replica, []).append(
            (outcome.request_id, outcome.gsn)
        )
    for replica, entries in per_replica.items():
        ordered = [gsn for _, gsn in sorted(entries)]
        assert ordered == sorted(ordered), f"non-monotonic versions at {replica}"


def test_quiescent_convergence():
    """'the replicated state will eventually converge, if update activity
    ceases' — within a couple of lazy rounds, here."""
    testbed = _build(lazy_update_interval=0.5)
    run_concurrent_workload(testbed)
    testbed.sim.run(until=testbed.sim.now + 2.0)  # a few lazy rounds
    values = {
        r.app.value
        for r in testbed.service.primaries + testbed.service.secondaries
    }
    assert values == {45}


def test_consistency_preserved_under_message_loss():
    """10 % random loss: reliability is the group layer's job; the
    protocol above it must not diverge."""
    from repro.groups.membership import MembershipConfig, MembershipService
    from repro.net.network import Network
    from repro.core.service import ReplicatedService
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry

    sim = Simulator()
    rng = RngRegistry(23)
    network = Network(sim, rng, FixedLatency(0.001), drop_probability=0.1)
    membership = MembershipService(
        config=MembershipConfig(heartbeat_interval=0.2, suspect_timeout=2.0)
    )
    network.attach(membership)
    service = ReplicatedService(
        sim, network, membership, rng,
        ServiceConfig(
            name="svc", num_primaries=3, num_secondaries=2,
            lazy_update_interval=0.5, read_service_time=Constant(0.010),
        ),
    )
    client = service.create_client("c", read_only_methods={"get"})

    def run():
        for _ in range(20):
            yield client.call("increment")
            yield Timeout(0.05)

    Process(sim, run())
    sim.run(until=120.0)
    histories = {tuple(p.app.history) for p in service.primaries}
    assert len(histories) == 1
    assert len(next(iter(histories))) == 20


def test_realistic_service_times_end_to_end():
    """The §6 service-time model end to end: reads finish, values are
    consistent prefixes."""
    testbed = _build(
        service_time=Normal(0.100, 0.050, floor=0.002),
        latency=LanLatency(),
        seed=31,
    )
    qos = QoSSpec(staleness_threshold=4, deadline=1.0, min_probability=0.5)
    clients, reads = run_concurrent_workload(
        testbed, num_clients=2, updates_per_client=10, qos=qos, gap=0.2
    )
    assert len(reads) == 20
    for outcome in reads:
        assert outcome.value == outcome.gsn
    for client in clients:
        assert client.updates_resolved.value == 10
