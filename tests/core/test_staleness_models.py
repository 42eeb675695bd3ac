"""Tests for the pluggable staleness models (§5.1.3's non-Poisson note)."""

import pytest

from repro.core.repository import ClientInfoRepository
from repro.core.requests import PerfBroadcast, StalenessInfo
from repro.core.staleness import PoissonStalenessModel, RateMixtureStalenessModel
from repro.stats.poisson import poisson_cdf


def _repo(pairs, t_l=1.0, received_at=10.0):
    repo = ClientInfoRepository(window_size=20)
    for n_u, t_u in pairs:
        repo.record_staleness(
            PerfBroadcast(
                "pub", ts=0.1, tq=0.0, tb=None,
                staleness=StalenessInfo(n_u, t_u, 0, t_l),
            ),
            now=received_at,
        )
    return repo


def test_poisson_matches_equation4():
    repo = _repo([(10, 5.0)], t_l=0.5)  # rate 2/s, t_l = 0.5 at now=10
    model = PoissonStalenessModel()
    assert model.staleness_factor(3, repo, now=10.0, lazy_interval=4.0) == (
        pytest.approx(poisson_cdf(3, 2.0 * 0.5))
    )


def test_poisson_no_updates_gives_one():
    repo = ClientInfoRepository(10)
    assert PoissonStalenessModel().staleness_factor(0, repo, 1.0, 2.0) == 1.0


def test_rate_mixture_equals_poisson_for_constant_rate():
    repo = _repo([(2, 1.0)] * 5, t_l=1.0)
    mixture = RateMixtureStalenessModel().staleness_factor(2, repo, 10.0, 4.0)
    poisson = PoissonStalenessModel().staleness_factor(2, repo, 10.0, 4.0)
    assert mixture == pytest.approx(poisson)


def test_rate_mixture_less_confident_under_burstiness():
    """Same mean rate, bursty observations, threshold above the mean: the
    single-rate Poisson model says "almost surely fresh" (a=4 > mean 2)
    while the bursts (rate 8) regularly blow past the threshold — the
    mixture model must be less confident."""
    steady = _repo([(2, 1.0)] * 4, t_l=1.0)  # constant 2/s
    bursty = _repo([(8, 1.0), (0, 1.0), (0, 1.0), (0, 1.0)], t_l=1.0)  # mean 2/s
    threshold = 4
    poisson_b = PoissonStalenessModel().staleness_factor(threshold, bursty, 10.0, 4.0)
    mixture_b = RateMixtureStalenessModel().staleness_factor(
        threshold, bursty, 10.0, 4.0
    )
    poisson_s = PoissonStalenessModel().staleness_factor(threshold, steady, 10.0, 4.0)
    assert poisson_b == pytest.approx(poisson_s)  # Poisson is blind to bursts
    assert mixture_b < poisson_b  # the mixture is not


def test_rate_mixture_empty_window_gives_one():
    repo = ClientInfoRepository(10)
    assert RateMixtureStalenessModel().staleness_factor(0, repo, 1.0, 2.0) == 1.0


def test_model_names_distinct():
    assert PoissonStalenessModel.name != RateMixtureStalenessModel.name


def test_predictor_uses_configured_model():
    from repro.core.prediction import ResponseTimePredictor

    bursty = _repo([(8, 1.0), (0, 1.0), (0, 1.0), (0, 1.0)], t_l=1.0)
    default = ResponseTimePredictor(bursty, 4.0)
    mixture = ResponseTimePredictor(
        bursty, 4.0, staleness_model=RateMixtureStalenessModel()
    )
    assert mixture.staleness_factor(4, now=10.0) == (
        RateMixtureStalenessModel().staleness_factor(4, bursty, 10.0, 4.0)
    )
    assert mixture.staleness_factor(4, now=10.0) < default.staleness_factor(4, now=10.0)


def test_client_accepts_staleness_model():
    from repro.core.service import ServiceConfig, build_testbed
    from repro.net.latency import FixedLatency
    from repro.sim.rng import Constant

    testbed = build_testbed(
        ServiceConfig(num_primaries=1, num_secondaries=1,
                      read_service_time=Constant(0.01)),
        latency=FixedLatency(0.001),
    )
    client = testbed.service.create_client(
        "c",
        read_only_methods={"get"},
        staleness_model=RateMixtureStalenessModel(),
    )
    assert client.predictor.staleness_model.name == "rate-mixture"
