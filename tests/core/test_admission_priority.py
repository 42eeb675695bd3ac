"""Tests for the Conclusions' extensions: admission control and
priority/cost mapping."""

import math

import pytest

from repro.core.admission import (
    AdmissionConfig,
    AdmissionController,
    ClientProfile,
    evaluate_against_client,
)
from repro.core.prediction import ResponseTimePredictor
from repro.core.qos import QoSSpec
from repro.core.repository import ClientInfoRepository
from repro.core.requests import PerfBroadcast
from repro.core.priority import (
    DEFAULT_PRIORITY_LEVELS,
    CostMapper,
    PriorityMapper,
)
from repro.core.selection import ReplicaView


def _views(n, cdf=0.9, primaries=1):
    return [
        ReplicaView(f"r{i}", i < primaries, cdf, cdf * 0.5, ert=float(i))
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# AdmissionController — feasibility
# ---------------------------------------------------------------------------
def test_achievable_probability_excludes_best_member():
    controller = AdmissionController()
    # Two replicas at 0.9: with one excluded as crash victim, only one
    # contributes: achievable = 0.9, not 0.99.
    achievable = controller.achievable_probability(
        _views(2), QoSSpec(2, 0.1, 0.5), stale_factor=1.0
    )
    assert achievable == pytest.approx(0.9)


def test_achievable_probability_empty_pool_is_zero():
    controller = AdmissionController()
    assert controller.achievable_probability([], QoSSpec(2, 0.1, 0.5), 1.0) == 0.0


def test_infeasible_qos_rejected():
    controller = AdmissionController()
    profile = ClientProfile("c", QoSSpec(2, 0.1, 0.95), read_rate=0.1)
    decision = controller.evaluate(
        profile, _views(2, cdf=0.8), stale_factor=1.0, num_primaries=1
    )
    assert not decision.admitted
    assert "cannot reach" in decision.reason
    assert decision.achievable_probability < 0.95


def test_feasible_qos_admitted():
    controller = AdmissionController()
    profile = ClientProfile("c", QoSSpec(2, 0.1, 0.9), read_rate=0.1)
    decision = controller.evaluate(
        profile, _views(5, cdf=0.9), stale_factor=1.0, num_primaries=2
    )
    assert decision.admitted
    assert decision.achievable_probability >= 0.9


# ---------------------------------------------------------------------------
# AdmissionController — capacity
# ---------------------------------------------------------------------------
def test_capacity_rejects_overload():
    controller = AdmissionController(
        AdmissionConfig(max_utilization=0.5, mean_read_service_time=0.1)
    )
    # 10 reads/s * 0.1 s * 2 replicas = 2 replica-seconds/s over 5 replicas
    # = 0.4 utilization for the first client; a second identical client
    # doubles it past the 0.5 bound.
    first = ClientProfile("c1", QoSSpec(2, 0.5, 0.5), read_rate=10.0)
    d1 = controller.evaluate(first, _views(5), 1.0, num_primaries=1)
    assert d1.admitted
    controller.admit(first, d1)

    second = ClientProfile("c2", QoSSpec(2, 0.5, 0.5), read_rate=10.0)
    d2 = controller.evaluate(second, _views(5), 1.0, num_primaries=1)
    assert not d2.admitted
    assert "utilization" in d2.reason


def test_update_rate_counts_against_all_primaries():
    controller = AdmissionController(
        AdmissionConfig(max_utilization=0.5, mean_update_service_time=0.1)
    )
    # 10 updates/s * 0.1 s * 4 primaries = 4 replica-s/s over 5 replicas.
    profile = ClientProfile("c", QoSSpec(2, 0.5, 0.0), read_rate=0.0, update_rate=10.0)
    decision = controller.evaluate(profile, _views(5), 1.0, num_primaries=4)
    assert not decision.admitted


def test_admit_rejected_decision_raises():
    controller = AdmissionController()
    profile = ClientProfile("c", QoSSpec(2, 0.1, 0.99), read_rate=1.0)
    decision = controller.evaluate(profile, _views(1, cdf=0.5), 1.0, 1)
    with pytest.raises(ValueError):
        controller.admit(profile, decision)
    controller.reject(profile, decision)
    assert controller.rejections[0][0] == "c"


def test_profile_and_config_validation():
    with pytest.raises(ValueError):
        ClientProfile("c", QoSSpec(1, 0.1, 0.5), read_rate=-1.0)
    with pytest.raises(ValueError):
        AdmissionConfig(max_utilization=0.0)
    with pytest.raises(ValueError):
        AdmissionConfig(mean_read_service_time=0.0)


def test_evaluate_against_live_predictor():
    repo = ClientInfoRepository(10)
    for name in ("p1", "s1", "s2"):
        for _ in range(5):
            repo.record_broadcast(PerfBroadcast(name, ts=0.02, tq=0.0, tb=None))
        repo.record_reply(name, 0.001, now=1.0)
    predictor = ResponseTimePredictor(repo, lazy_update_interval=2.0)
    controller = AdmissionController()
    profile = ClientProfile("c", QoSSpec(5, 0.1, 0.9), read_rate=0.5)
    decision = evaluate_against_client(
        controller, profile, predictor, ["p1"], ["s1", "s2"], now=2.0
    )
    assert decision.admitted  # 20 ms responses easily meet a 100 ms deadline


# ---------------------------------------------------------------------------
# PriorityMapper
# ---------------------------------------------------------------------------
def test_default_levels_ranked():
    mapper = PriorityMapper()
    assert mapper.probability_for("gold") == DEFAULT_PRIORITY_LEVELS["gold"]


def test_priority_builds_qos():
    mapper = PriorityMapper()
    qos = mapper.qos_for("silver", staleness_threshold=3, deadline=0.2)
    assert qos == QoSSpec(3, 0.2, 0.7)


def test_unknown_priority_raises_with_known_levels():
    with pytest.raises(KeyError) as err:
        PriorityMapper().probability_for("diamond")
    assert "platinum" in str(err.value)


def test_custom_levels_validated():
    with pytest.raises(ValueError):
        PriorityMapper({})
    with pytest.raises(ValueError):
        PriorityMapper({"x": 1.5})
    with pytest.raises(ValueError):
        PriorityMapper({"": 0.5})


# ---------------------------------------------------------------------------
# CostMapper
# ---------------------------------------------------------------------------
def test_cost_zero_budget_gives_base():
    mapper = CostMapper(base_probability=0.5, failure_discount=0.5)
    assert mapper.probability_for(0.0) == pytest.approx(0.5)


def test_cost_monotone_with_diminishing_returns():
    mapper = CostMapper(base_probability=0.5, failure_discount=0.5)
    probs = [mapper.probability_for(b) for b in range(6)]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    gains = [b - a for a, b in zip(probs, probs[1:])]
    assert all(later < earlier for earlier, later in zip(gains, gains[1:]))


def test_cost_capped_at_max():
    mapper = CostMapper(base_probability=0.5, failure_discount=0.5,
                        max_probability=0.9)
    assert mapper.probability_for(100.0) == pytest.approx(0.9)


def test_cost_mapper_validation():
    with pytest.raises(ValueError):
        CostMapper(base_probability=1.5)
    with pytest.raises(ValueError):
        CostMapper(failure_discount=1.0)
    with pytest.raises(ValueError):
        CostMapper(base_probability=0.8, max_probability=0.5)
    with pytest.raises(ValueError):
        CostMapper().probability_for(-1.0)


def test_cost_qos_for():
    qos = CostMapper().qos_for(2.0, staleness_threshold=1, deadline=0.3)
    assert qos.staleness_threshold == 1
    assert qos.deadline == 0.3
    assert qos.min_probability == CostMapper().probability_for(2.0)


# ---------------------------------------------------------------------------
# AdmissionController — empty pool
# ---------------------------------------------------------------------------
def test_evaluate_empty_pool_rejects_explicitly():
    controller = AdmissionController()
    profile = ClientProfile("c", QoSSpec(2, 0.1, 0.5), read_rate=1.0)
    decision = controller.evaluate(profile, [], stale_factor=1.0, num_primaries=1)
    assert not decision.admitted
    assert "no serving replicas" in decision.reason
    assert decision.achievable_probability == 0.0
    assert math.isinf(decision.projected_utilization)
