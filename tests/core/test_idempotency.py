"""Idempotency under duplication and reordering (gray-fault churn).

The ``dup_storm`` chaos fault re-delivers and reorders group messages at
the fabric layer, so every handler entry point a storm can hit must be a
no-op on the second copy and order-insensitive where the protocol allows
it.  Hypothesis drives the multiplicities and permutations; the oracle is
replica state captured before the replay:

* a duplicated/reordered ``GsnAssign`` never re-commits an update or
  moves the commit frontier;
* a duplicated or stale (lower-CSN) ``LazyUpdate`` never regresses a
  secondary's state;
* a ``StateTransferSnapshot`` for a transfer the replica did not ask for
  (wrong ``xfer_id``, or not recovering at all) is ignored outright.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.qos import QoSSpec
from repro.core.requests import GsnAssign, LazyUpdate, StateTransferSnapshot
from repro.core.service import ServiceConfig, build_testbed
from repro.net.latency import FixedLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant

IDEMPOTENCY_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

QOS = QoSSpec(staleness_threshold=100, deadline=1.0, min_probability=0.5)


def run_small_service(updates=6, lui=0.4):
    """A short converged run; returns the testbed and captured payloads."""
    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=2,
        lazy_update_interval=lui,
        read_service_time=Constant(0.010),
    )
    testbed = build_testbed(config, seed=7, latency=FixedLatency(0.001))
    service = testbed.service
    client = service.create_client("c", read_only_methods={"get"})

    captured = {"assign": [], "lazy": []}
    primary = service.primaries[0]
    secondary = service.secondaries[0]
    for handler, kinds in (
        (primary, {GsnAssign: "assign"}),
        (secondary, {LazyUpdate: "lazy"}),
    ):
        original = handler.on_group_message

        def spy(group, sender, payload, original=original, kinds=kinds):
            key = kinds.get(type(payload))
            if key is not None:
                captured[key].append((group, sender, payload))
            original(group, sender, payload)

        handler.on_group_message = spy

    def run():
        for _ in range(updates):
            yield client.call("increment")
            yield Timeout(0.05)
        yield client.call("get", (), QOS)

    Process(testbed.sim, run())
    testbed.sim.run(until=60.0)
    testbed.sim.run(until=testbed.sim.now + 3 * lui)  # quiescent lazy rounds
    return testbed, primary, secondary, captured


def replica_fingerprint(handler):
    return (
        handler.my_csn,
        handler.my_gsn,
        handler.app.snapshot(),
    )


# ---------------------------------------------------------------------------
# GsnAssign
# ---------------------------------------------------------------------------
@IDEMPOTENCY_SETTINGS
@given(data=st.data())
def test_duplicated_reordered_gsn_assign_is_idempotent(data):
    testbed, primary, secondary, captured = run_small_service()
    assert captured["assign"], "run produced no GSN assignments"
    before = replica_fingerprint(primary)

    copies = data.draw(
        st.lists(
            st.sampled_from(captured["assign"]),
            min_size=1,
            max_size=3 * len(captured["assign"]),
        ),
        label="assign replay",
    )
    for group, sender, payload in copies:
        primary.on_group_message(group, sender, payload)
    testbed.sim.run(until=testbed.sim.now + 2.0)

    assert replica_fingerprint(primary) == before


# ---------------------------------------------------------------------------
# LazyUpdate
# ---------------------------------------------------------------------------
@IDEMPOTENCY_SETTINGS
@given(data=st.data())
def test_duplicated_stale_lazy_update_never_regresses(data):
    testbed, primary, secondary, captured = run_small_service()
    assert captured["lazy"], "run produced no lazy updates"
    before = replica_fingerprint(secondary)

    copies = data.draw(
        st.lists(
            st.sampled_from(captured["lazy"]),
            min_size=1,
            max_size=3 * len(captured["lazy"]),
        ),
        label="lazy replay",
    )
    for group, sender, payload in copies:
        secondary.on_group_message(group, sender, payload)
    testbed.sim.run(until=testbed.sim.now + 2.0)

    # Replaying any mix of old snapshots (all CSNs <= current) is a no-op.
    assert replica_fingerprint(secondary) == before


# ---------------------------------------------------------------------------
# StateTransferSnapshot
# ---------------------------------------------------------------------------
@IDEMPOTENCY_SETTINGS
@given(
    xfer_id=st.integers(min_value=0, max_value=10_000),
    csn=st.integers(min_value=0, max_value=10_000),
    max_gsn=st.integers(min_value=0, max_value=10_000),
)
def test_unsolicited_state_transfer_snapshot_is_ignored(xfer_id, csn, max_gsn):
    testbed, primary, secondary, _ = run_small_service(updates=3)
    before = replica_fingerprint(primary)

    snap = StateTransferSnapshot(
        member="svc-p2",
        xfer_id=xfer_id,
        csn=csn,
        max_gsn=max_gsn,
        snapshot={"counter": 999_999},
        assignments=((1, 1), (2, 2)),
        skips=(csn + 1,),
    )
    # The primary never requested a transfer, so whatever the ids say,
    # this must not touch its state.
    primary.catchup._on_state_transfer_snapshot(snap)
    testbed.sim.run(until=testbed.sim.now + 1.0)

    assert replica_fingerprint(primary) == before
