"""Unit tests for service assembly (Figure 1) and the client gateway
facade (Figure 2)."""

import pytest

from repro.apps.kvstore import KVStore
from repro.core.config import default_service_time
from repro.core.gateway import Gateway
from repro.core.qos import OrderingGuarantee, QoSSpec
from repro.core.replica import ServiceGroups
from repro.core.service import ReplicatedService, ServiceConfig, build_testbed
from repro.groups.membership import MembershipService
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import Constant, RngRegistry


# ---------------------------------------------------------------------------
# ServiceGroups
# ---------------------------------------------------------------------------
def test_group_names_derived_from_service():
    groups = ServiceGroups("svc")
    assert groups.primary == "svc.primary"
    assert groups.secondary == "svc.secondary"
    assert groups.qos == "svc.qos"
    # The names are derived, so the service name is the whole identity.
    assert groups == ServiceGroups("svc") != ServiceGroups("other")
    assert hash(groups) == hash(ServiceGroups("svc"))
    assert repr(groups) == "ServiceGroups(service='svc')"


# ---------------------------------------------------------------------------
# ServiceConfig
# ---------------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        ServiceConfig(num_primaries=0)
    with pytest.raises(ValueError):
        ServiceConfig(num_secondaries=-1)
    with pytest.raises(ValueError):
        ServiceConfig(lazy_update_interval=0.0)


@pytest.mark.parametrize(
    "field",
    [
        dict(lazy_update_interval=-1.0),
        dict(heartbeat_interval=0.0),  # these two are MembershipConfig's
        dict(suspect_timeout=0.25),
        dict(rto=0.0),
        dict(gsn_wait_timeout=0.0),  # used to hang the first read at +0 s
        dict(gsn_wait_timeout=-1.0),
        dict(gc_timeout=-1.0),  # used to be a kernel error at the first request
        dict(window_size=0),  # these two used to fail only in create_client
        dict(quantum=0.0),
    ],
    ids=lambda field: "{}={}".format(*next(iter(field.items()))),
)
def test_config_rejects_what_would_only_fail_once_running(field):
    # rto and quantum are constants, not fields (GroupEndpoint's own timeout
    # and client.QUANTUM), and the membership timers are fields of
    # ServiceConfig.membership, so passing one is refused, not ignored.
    with pytest.raises((TypeError, ValueError)):
        ServiceConfig(**field)


def test_default_service_time_matches_paper():
    dist = default_service_time()
    assert dist.mu == pytest.approx(0.100)
    assert dist.sigma == pytest.approx(0.050)


def test_has_sequencer_by_ordering():
    assert ServiceConfig(ordering=OrderingGuarantee.SEQUENTIAL).has_sequencer
    assert not ServiceConfig(ordering=OrderingGuarantee.FIFO).has_sequencer


# ---------------------------------------------------------------------------
# Assembly (Figure 1)
# ---------------------------------------------------------------------------
def _testbed(**kwargs):
    defaults = dict(
        name="svc",
        num_primaries=2,
        num_secondaries=3,
        read_service_time=Constant(0.01),
    )
    defaults.update(kwargs)
    return build_testbed(
        ServiceConfig(**defaults), seed=6, latency=FixedLatency(0.001)
    )


def test_replica_counts_and_names():
    testbed = _testbed()
    service = testbed.service
    assert service.sequencer_name == "svc-seq"
    assert [p.name for p in service.primaries] == ["svc-p1", "svc-p2"]
    assert [s.name for s in service.secondaries] == ["svc-s1", "svc-s2", "svc-s3"]
    assert len(service.all_replicas()) == 6


def test_initial_views_installed_synchronously():
    testbed = _testbed()
    service = testbed.service
    for replica in service.all_replicas():
        assert replica.primary_view.members == ("svc-seq", "svc-p1", "svc-p2")
        assert replica.view_of("svc.secondary").members == ("svc-s1", "svc-s2", "svc-s3")
        assert set(replica.view_of("svc.qos").members) == {
            r.name for r in service.all_replicas()
        }


def test_replica_by_name():
    testbed = _testbed()
    assert testbed.service.replica_by_name("svc-p1").name == "svc-p1"
    with pytest.raises(KeyError):
        testbed.service.replica_by_name("ghost")


def test_client_joins_qos_group_and_views_pushed():
    testbed = _testbed()
    client = testbed.service.create_client("c")
    assert "c" in testbed.membership.view_of("svc.qos")
    assert client.view_of("svc.primary").members == ("svc-seq", "svc-p1", "svc-p2")
    # Replicas see the client in the QoS group (for perf broadcasts).
    assert "c" in testbed.service.primaries[0].view_of("svc.qos")
    assert testbed.service.primaries[0].client_names() == ("c",)


def test_heterogeneous_hosts_slow_service_times():
    """A 5x slower host yields ~5x the service time (the paper's 300 MHz
    vs 1 GHz spread)."""
    testbed = _testbed()
    slow = _testbed()
    for replica in slow.service.all_replicas():
        slow.network.host_of(replica.name).base_speed_factor = 5.0
    client_fast = testbed.service.create_client("c", read_only_methods={"get"})
    client_slow = slow.service.create_client("c", read_only_methods={"get"})
    qos = QoSSpec(10, 5.0, 0.5)
    results = {}

    for label, tb, client in (("fast", testbed, client_fast), ("slow", slow, client_slow)):
        out = []

        def run(client=client, out=out):
            o = yield client.call("get", (), qos)
            out.append(o)

        Process(tb.sim, run())
        tb.sim.run(until=10.0)
        results[label] = out[0].response_time
    assert results["slow"] > 3 * results["fast"]


# ---------------------------------------------------------------------------
# Gateway (Figure 2)
# ---------------------------------------------------------------------------
def _two_services():
    sim = Simulator()
    rng = RngRegistry(9)
    network = Network(sim, rng, FixedLatency(0.001))
    membership = MembershipService()
    network.attach(membership)
    a = ReplicatedService(
        sim, network, membership, rng,
        ServiceConfig(name="a", num_primaries=2, num_secondaries=1,
                      read_service_time=Constant(0.01)),
        app_factory=KVStore,
    )
    b = ReplicatedService(
        sim, network, membership, rng,
        ServiceConfig(name="b", ordering=OrderingGuarantee.FIFO,
                      num_primaries=2, num_secondaries=1,
                      read_service_time=Constant(0.01)),
        app_factory=KVStore,
    )
    return sim, a, b


def test_gateway_connects_to_multiple_services():
    sim, a, b = _two_services()
    gateway = Gateway("client")
    handler_a = gateway.connect(a, read_only_methods=set(KVStore.READ_ONLY_METHODS))
    handler_b = gateway.connect(b, read_only_methods=set(KVStore.READ_ONLY_METHODS))
    assert gateway.services() == ["a", "b"]
    assert handler_a is gateway.handler("a")
    assert handler_b is gateway.handler("b")
    assert handler_a.has_sequencer and not handler_b.has_sequencer


def test_gateway_invoke_routes_by_service():
    sim, a, b = _two_services()
    gateway = Gateway("client")
    gateway.connect(a, read_only_methods=set(KVStore.READ_ONLY_METHODS))
    gateway.connect(b, read_only_methods=set(KVStore.READ_ONLY_METHODS))
    gateway.invoke("a", "put", ("k", "va"))
    gateway.invoke("b", "put", ("k", "vb"))
    sim.run(until=5.0)
    assert a.primaries[0].app.get("k") == "va"
    assert b.primaries[0].app.get("k") == "vb"


def test_gateway_duplicate_connect_rejected():
    sim, a, _ = _two_services()
    gateway = Gateway("client")
    gateway.connect(a)
    with pytest.raises(ValueError):
        gateway.connect(a)


def test_gateway_unknown_service_rejected():
    gateway = Gateway("client")
    with pytest.raises(KeyError):
        gateway.handler("nope")
    with pytest.raises(ValueError):
        Gateway("")


def test_two_gateways_share_services():
    sim, a, _ = _two_services()
    g1, g2 = Gateway("u1"), Gateway("u2")
    h1 = g1.connect(a, read_only_methods=set(KVStore.READ_ONLY_METHODS))
    h2 = g2.connect(a, read_only_methods=set(KVStore.READ_ONLY_METHODS))
    assert h1.name == "u1@a" and h2.name == "u2@a"
    assert set(a.clients) == {"u1@a", "u2@a"}
