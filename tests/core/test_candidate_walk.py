"""The read path's candidate walk is Algorithm 1's line-2 sort, evaluated lazily.

``Candidates.walk`` produces the candidates in decreasing ``ert`` order
from the repository's reply order, and builds a ``V`` tuple only when
Algorithm 1 asks for the next one.  These tests hold it to the sort it
replaces — the same visiting order, the same :class:`SelectionResult` and
the same calibration forecast as ``select(sort_candidates(every view))`` —
and check that a read evaluates only the replicas it visits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import MIN_EJECT_KEEP
from repro.core.detector import DetectorConfig
from repro.core.qos import QoSSpec
from repro.core.requests import PerfBroadcast
from repro.core.selection import (
    StateBasedSelection,
    set_success_probability,
    sort_candidates,
)
from repro.core.service import ServiceConfig, build_testbed
from repro.groups.membership import View
from repro.obs.calibration import CalibrationTracker


def _client(num_primaries, num_secondaries, detector=False):
    testbed = build_testbed(
        ServiceConfig(
            num_primaries=num_primaries,
            num_secondaries=num_secondaries,
            detector=DetectorConfig() if detector else None,
        ),
        seed=1,
    )
    client = testbed.service.create_client("c", read_only_methods={"get"})
    client.calibration = CalibrationTracker()  # so a read forms its forecast
    return testbed, client


def _broadcast(client, name, ts, tq, tb):
    client.repository.record_broadcast(
        PerfBroadcast(replica=name, ts=ts, tq=tq, tb=tb)
    )


# Reply instants with exact ties (a repeated value) and with ties that only
# float rounding makes: 1.0 and 1.0 + 1e-12 lie one ulp apart at 1e5, so
# ``1e5 - t`` rounds both to the same ``ert``.
_REPLY_TIMES = (1.0, 1.0 + 1e-12, 2.0, 3.0)
_NOWS = (3.0, 4.0, 1e5)


@st.composite
def _scenes(draw):
    num_primaries = draw(st.integers(1, 4))
    num_secondaries = draw(st.integers(0, 5))
    replicas = (
        ["svc-seq"]
        + [f"svc-p{i}" for i in range(1, num_primaries + 1)]
        + [f"svc-s{i}" for i in range(1, num_secondaries + 1)]
    )
    # Few distinct values, so equal F^I (and equal F^D) are common.
    history = {
        name: draw(
            st.lists(
                st.tuples(
                    st.sampled_from((0.010, 0.030, 0.080)),
                    st.sampled_from((0.0, 0.005)),
                    st.sampled_from((None, 0.1, 0.6)),
                ),
                max_size=3,
            )
        )
        for name in replicas
    }
    # The sequencer may reply too: the walk must skip it.
    replies = draw(
        st.lists(
            st.tuples(
                st.sampled_from(replicas),
                st.sampled_from(_REPLY_TIMES),
                st.sampled_from((0.0005, 0.001, 0.004)),
            ),
            max_size=12,
        )
    )
    departed = draw(st.sampled_from([None] + replicas[1:]))
    return dict(
        num_primaries=num_primaries,
        num_secondaries=num_secondaries,
        history=history,
        replies=replies,
        now=draw(st.sampled_from(_NOWS)),
        departed=departed,
        suspects=draw(
            st.none() | st.sets(st.sampled_from(replicas), max_size=len(replicas))
        ),
        prefer_secondaries=draw(st.booleans()),
        qos=QoSSpec(
            staleness_threshold=2,
            deadline=draw(st.sampled_from((0.02, 0.05, 0.2))),
            # 1.0 is unsatisfiable once a replica can miss the deadline.
            min_probability=draw(st.sampled_from((0.5, 0.9, 0.999, 1.0))),
        ),
    )


class _Ladder:
    prefer_secondaries = True


def _build(scene):
    testbed, client = _client(
        scene["num_primaries"], scene["num_secondaries"],
        detector=scene["suspects"] is not None,
    )
    for name, samples in scene["history"].items():
        for ts, tq, tb in samples:
            _broadcast(client, name, ts, tq, tb)
    # The repository sees replies in clock order; equal instants keep the
    # drawn order, which the walk must not depend on.
    for name, at, tg in sorted(scene["replies"], key=lambda reply: reply[1]):
        client.repository.record_reply(name, tg, at)
    testbed.sim._now = scene["now"]
    if scene["departed"] is not None:
        name = scene["departed"]
        for group in (client.groups.primary, client.groups.secondary):
            view = client.view_of(group)
            if name in view and view.leader != name:
                members = tuple(m for m in view.members if m != name)
                client.adopt_view(View(group, view.view_id + 1, members))
    if scene["suspects"] is not None:
        suspects = scene["suspects"]
        client.detector.suspicion_check = lambda name, now: None
        client.detector.is_suspected = lambda name, now: name in suspects
    if scene["prefer_secondaries"]:
        client.degradation = _Ladder()
    return client


def _sorted_selection(client, qos, suspects, prefer_secondaries):
    """What the read path did before the walk: every candidate evaluated in
    view order, filtered, sorted, then Algorithm 1."""
    views = client.candidate_views(qos)
    if prefer_secondaries:
        secondaries = [v for v in views if not v.is_primary]
        if secondaries:
            views = secondaries
    if suspects is not None:
        healthy = [v for v in views if v.name not in suspects]
        if len(healthy) < len(views) and len(healthy) >= MIN_EJECT_KEEP:
            views = healthy
    stale_factor = client.predictor.staleness_factor(
        qos.staleness_threshold, client.now
    )
    result = StateBasedSelection().select(sort_candidates(views), qos, stale_factor)
    return result, set_success_probability(views, result.replicas, stale_factor)


@settings(max_examples=150, deadline=None)
@given(_scenes())
def test_the_walk_is_the_sort(scene):
    client = _build(scene)
    qos = scene["qos"]
    assert "svc-seq" not in client.candidates.roles  # the sequencer is no candidate

    # Every candidate, exhausted: the walk's order is the sort's.
    every = client.candidate_views(qos)
    walked = list(client.candidates.walk(client.candidates.roles, qos.deadline, {}))
    assert walked == sort_candidates(every)

    # Algorithm 1 over the walk returns the same result as over the sort.
    stale_factor = client.predictor.staleness_factor(
        qos.staleness_threshold, client.now
    )
    strategy = StateBasedSelection()
    walk = client.candidates.walk(client.candidates.roles, qos.deadline, {})
    lazy = strategy.select(walk, qos, stale_factor)
    assert lazy == strategy.select(sort_candidates(every), qos, stale_factor)

    # The read path, filters included: same replicas, same forecast bits.
    expected, predicted = _sorted_selection(
        client, qos, scene["suspects"], scene["prefer_secondaries"]
    )
    replicas, forecast = client.candidates.select(qos)
    assert replicas == expected.replicas
    assert forecast == predicted


def _wide_client(reply_times):
    """4 + 28 candidates with equal history, heard at ``reply_times``."""
    testbed, client = _client(4, 28)
    names = list(client.candidates.roles)
    for name in names:
        for _ in range(5):
            _broadcast(client, name, 0.010, 0.002, 0.1)
    for name, at in sorted(zip(names, reply_times), key=lambda pair: pair[1]):
        client.repository.record_reply(name, 0.001, at)
    testbed.sim._now = 100.0
    return client


# Every candidate answers inside 100 ms, so the first two visited meet it.
_TWO_MEET = QoSSpec(staleness_threshold=2, deadline=0.1, min_probability=0.9)


def test_a_read_evaluates_only_the_replicas_it_visits():
    client = _wide_client([float(i) for i in range(32)])
    evaluations = client.predictor.evaluations
    before = evaluations.value
    replicas, _ = client.candidates.select(_TWO_MEET)
    assert len(replicas) == 2
    assert evaluations.value - before == 2


def test_a_tie_group_at_the_frontier_is_evaluated_whole():
    # The second-oldest reply is shared by three replicas: Algorithm 1
    # stops at one of them, but which one needs all three F^I.
    times = [0.0, 5.0, 5.0, 5.0] + [10.0 + i for i in range(28)]
    client = _wide_client(times)
    evaluations = client.predictor.evaluations
    before = evaluations.value
    replicas, _ = client.candidates.select(_TWO_MEET)
    assert len(replicas) == 2
    assert evaluations.value - before == 4
