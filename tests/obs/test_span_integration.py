"""End-to-end span trees from real testbed runs.

The acceptance shape: a hedged read reconstructs as ONE judged request tree
whose root carries exactly two replica dispatch edges (the selected target
and the hedge), each with the serve/reply activity stitched underneath.
"""

from repro.baselines.strategies import RoundRobinSelection
from repro.core.client import RetryPolicy
from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import FixedLatency
from repro.obs.spans import build_span_trees
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant
from repro.sim.tracing import Trace

QOS = QoSSpec(staleness_threshold=10, deadline=1.0, min_probability=0.95)


def make_traced_testbed(seed=21):
    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=2,
        lazy_update_interval=0.4,
        read_service_time=Constant(0.010),
    )
    return build_testbed(
        config, seed=seed, latency=FixedLatency(0.001), trace=Trace(enabled=True)
    )


def run_reads(testbed, client, reads=10):
    def run():
        yield client.call("increment")
        for _ in range(reads):
            yield client.call("get", (), QOS)
            yield Timeout(0.1)

    Process(testbed.sim, run())
    testbed.sim.run(until=5.0)


def test_hedged_read_is_one_tree_with_two_dispatches():
    testbed = make_traced_testbed()
    client = testbed.service.create_client(
        "c",
        read_only_methods={"get"},
        strategy=RoundRobinSelection(),
        retry_policy=RetryPolicy(hedge=True),
    )
    run_reads(testbed, client)
    assert client.hedges_sent.value > 0

    trees = build_span_trees(testbed.trace)
    hedged_roots = [
        root
        for root in trees.values()
        if root.name == "read"
        and any(
            d.annotations.get("reason") == "hedge" for d in root.find("dispatch")
        )
    ]
    assert hedged_roots, "no hedged read reconstructed"
    for root in hedged_roots:
        judges = root.find("judge")
        assert len(judges) == 1  # judged exactly once despite two dispatches
        replica_dispatches = [
            d
            for d in root.find("dispatch")
            if d.annotations["reason"] in ("select", "hedge")
        ]
        assert len(replica_dispatches) == 2
        assert {d.annotations["reason"] for d in replica_dispatches} == {
            "select",
            "hedge",
        }
        # Both dispatch edges point at distinct replicas.
        targets = {d.annotations["target"] for d in replica_dispatches}
        assert len(targets) == 2
        # At least one target actually served the read, and the serve span
        # stitched under that dispatch edge.
        serves = root.find("serve")
        assert serves
        for serve in serves:
            assert serve.annotations["kind"] == "read"


def test_read_tree_carries_reply_and_annotations():
    testbed = make_traced_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    run_reads(testbed, client, reads=5)

    trees = build_span_trees(testbed.trace)
    read_roots = [r for r in trees.values() if r.name == "read"]
    assert read_roots
    resolved = [r for r in read_roots if r.find("reply")]
    assert resolved
    root = resolved[0]
    assert root.annotations["deadline"] == QOS.deadline
    assert 0.0 <= root.annotations["predicted"] <= 1.0
    reply = root.find("reply")[0]
    assert reply.annotations["response_time"] > 0.0
    judge = root.find("judge")[0]
    assert judge.annotations["timely"] in (True, False)


def test_update_tree_reaches_sequencer_and_replicas():
    testbed = make_traced_testbed()
    client = testbed.service.create_client("c", read_only_methods={"get"})
    run_reads(testbed, client, reads=2)

    trees = build_span_trees(testbed.trace)
    update_roots = [r for r in trees.values() if r.name == "update"]
    assert update_roots
    root = update_roots[0]
    sequenced = root.find("sequence")
    assert sequenced and sequenced[0].annotations["gsn"] >= 1
