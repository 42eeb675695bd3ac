"""A replica's roles are derived once per installed view, not per message.

``GroupEndpoint.adopt_view`` refreshes ``is_primary``, ``is_secondary``,
``sequencer_name``, ``is_sequencer``, ``replica_names()`` and
``client_names()`` after it stores a view and before ``on_view_change``
runs.  The per-call derivations they replaced are kept here as the oracle:
after every install — and inside every ``on_view_change`` — the cached
roles must be what those bodies compute from ``views``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.service import ServiceConfig, build_testbed
from repro.groups.membership import View
from repro.net.latency import FixedLatency
from repro.sim.rng import Constant

NAMES = ("svc-seq", "svc-p1", "svc-p2", "svc-s1", "svc-s2", "c1", "c2")


def derived_roles(handler):
    """The property bodies the cached roles replaced, as they were."""
    primary_view = handler.view_of(handler.groups.primary)
    secondary_view = handler.view_of(handler.groups.secondary)
    qos_view = handler.view_of(handler.groups.qos)
    sequencer_name = primary_view.leader
    replica_names = set(primary_view.members) | set(secondary_view.members)
    return {
        "is_primary": handler.name in primary_view,
        "is_secondary": handler.name in secondary_view,
        "sequencer_name": sequencer_name,
        "is_sequencer": sequencer_name == handler.name,
        "replica_names": replica_names,
        "client_names": [m for m in qos_view.members if m not in replica_names],
    }


def cached_roles(handler):
    return {
        "is_primary": handler.is_primary,
        "is_secondary": handler.is_secondary,
        "sequencer_name": handler.sequencer_name,
        "is_sequencer": handler.is_sequencer,
        "replica_names": set(handler.replica_names()),
        "client_names": list(handler.client_names()),
    }


def make_handler(name):
    testbed = build_testbed(
        ServiceConfig(
            name="svc",
            num_primaries=2,
            num_secondaries=2,
            read_service_time=Constant(0.01),
        ),
        seed=1,
        latency=FixedLatency(0.001),
    )
    testbed.service.create_client("c1")
    handler = testbed.service.replica_by_name(name)
    seen = []  # (view, cached roles, derived roles) inside on_view_change
    on_view_change = handler.on_view_change

    def spy(view, previous):
        seen.append((view, cached_roles(handler), derived_roles(handler)))
        on_view_change(view, previous)

    handler.on_view_change = spy
    return handler, seen


_steps = st.lists(
    st.tuples(
        st.integers(0, 2),  # primary, secondary or QoS group
        st.sampled_from(["join", "evict", "leader", "rejoin", "empty", "stale"]),
        st.integers(0, len(NAMES) - 1),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(who=st.sampled_from(["svc-seq", "svc-p1", "svc-s1"]), steps=_steps)
def test_cached_roles_equal_the_per_call_derivation_after_every_install(who, steps):
    handler, seen = make_handler(who)
    groups = handler.groups
    assert cached_roles(handler) == derived_roles(handler)
    evicted = {group: [] for group in (groups.primary, groups.secondary, groups.qos)}
    for index, action, pick in steps:
        group = (groups.primary, groups.secondary, groups.qos)[index]
        current = handler.view_of(group)
        members = list(current.members)
        view_id = current.view_id + 1
        if action == "join":
            # A fresh name at the tail (rank order is join order).
            newcomer = next(
                (n for n in NAMES[pick:] + NAMES[:pick] if n not in members), None
            )
            members += [newcomer] if newcomer is not None else []
        elif action in ("evict", "leader") and members:
            gone = members.pop(0 if action == "leader" else pick % len(members))
            evicted[group].append(gone)
        elif action == "rejoin":
            back = [n for n in evicted[group] if n not in members]
            if back:
                members.append(back[pick % len(back)])
        elif action == "empty":
            evicted[group] += members
            members = []
        elif action == "stale":
            # An old view arriving late is dropped: nothing may change.
            view_id = current.view_id
            members = list(NAMES[: pick + 1])
        installs = len(seen)
        handler.adopt_view(View(group, view_id, tuple(members)))
        assert len(seen) == installs + (action != "stale")
        assert cached_roles(handler) == derived_roles(handler)
    for _, cached, derived in seen:
        assert cached == derived


def test_sequencer_failover_reads_the_new_role_in_on_view_change():
    """svc-p1 learns the sequencer left: it is the sequencer inside the
    very ``on_view_change`` that starts the GSN recovery."""
    handler, seen = make_handler("svc-p1")
    primary = handler.groups.primary
    previous = handler.view_of(primary)
    assert previous.members[0] == "svc-seq" and not handler.is_sequencer

    handler.adopt_view(View(primary, previous.view_id + 1, ("svc-p1", "svc-p2")))

    [(view, cached, derived)] = seen
    assert cached == derived
    assert cached["is_sequencer"] and cached["sequencer_name"] == "svc-p1"
    assert handler.catchup.sequencer_active and handler.catchup.syncing
    assert handler.replica_names() == {"svc-p1", "svc-p2", "svc-s1", "svc-s2"}
    assert "svc-seq" in handler.client_names()  # still in the QoS view
