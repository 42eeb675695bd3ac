"""Unit tests for the probabilistic models (§5.1–§5.2)."""

import pytest

from repro.core.prediction import ResponseTimePredictor
from repro.core.repository import ClientInfoRepository
from repro.core.requests import PerfBroadcast, StalenessInfo
from repro.stats.poisson import poisson_cdf


def _repo_with(replica="r", ts_samples=(), tq_samples=(), tb_samples=(), tg=None):
    repo = ClientInfoRepository(window_size=20)
    n = max(len(ts_samples), len(tq_samples))
    ts_list = list(ts_samples) or [0.0] * n
    tq_list = list(tq_samples) or [0.0] * n
    for i in range(n):
        repo.record_broadcast(
            PerfBroadcast(
                replica=replica,
                ts=ts_list[i % len(ts_list)],
                tq=tq_list[i % len(tq_list)],
                tb=None,
            )
        )
    for tb in tb_samples:
        repo.record_broadcast(
            PerfBroadcast(replica=replica, ts=ts_list[0], tq=tq_list[0], tb=tb)
        )
    if tg is not None:
        repo.record_reply(replica, tg=tg, now=1.0)
    return repo


# ---------------------------------------------------------------------------
# Immediate reads: R = S + W + G (Eq. 5)
# ---------------------------------------------------------------------------
def test_immediate_cdf_is_convolution_of_components():
    # S uniform on {10,20} ms, W uniform on {5,15} ms, G = 1 ms.
    repo = _repo_with(ts_samples=[0.010, 0.020], tq_samples=[0.005, 0.015], tg=0.001)
    predictor = ResponseTimePredictor(repo, lazy_update_interval=2.0)
    # Sums: 16, 26, 26, 36 ms each with prob 1/4.
    assert predictor.immediate_cdf("r", 0.016) == pytest.approx(0.25)
    assert predictor.immediate_cdf("r", 0.026) == pytest.approx(0.75)
    assert predictor.immediate_cdf("r", 0.036) == pytest.approx(1.0)
    assert predictor.immediate_cdf("r", 0.010) == 0.0


def test_gateway_delay_uses_latest_value_only():
    repo = _repo_with(ts_samples=[0.010], tq_samples=[0.0], tg=0.001)
    repo.record_reply("r", tg=0.050, now=2.0)  # newer, much larger
    predictor = ResponseTimePredictor(repo, 2.0)
    assert predictor.immediate_cdf("r", 0.020) == 0.0  # 10 + 50 ms > 20 ms
    assert predictor.immediate_cdf("r", 0.060) == 1.0


def test_default_gateway_delay_applied_without_replies():
    repo = _repo_with(ts_samples=[0.010], tq_samples=[0.0])
    predictor = ResponseTimePredictor(repo, 2.0, default_gateway_delay=0.005)
    assert predictor.immediate_cdf("r", 0.014) == 0.0
    assert predictor.immediate_cdf("r", 0.015) == 1.0


def test_bootstrap_cdf_without_history():
    repo = ClientInfoRepository(10)
    predictor = ResponseTimePredictor(repo, 2.0)
    assert predictor.immediate_cdf("unknown", 0.1) == 1.0
    assert predictor.response_cdfs("unknown", 0.1) == (1.0, 1.0)


def test_custom_bootstrap_cdf():
    repo = ClientInfoRepository(10)
    predictor = ResponseTimePredictor(repo, 2.0, bootstrap_cdf=0.0)
    assert predictor.immediate_cdf("unknown", 0.1) == 0.0
    with pytest.raises(ValueError):
        ResponseTimePredictor(repo, 2.0, bootstrap_cdf=1.5)


# ---------------------------------------------------------------------------
# Deferred reads: R = S + W + G + U (Eq. 6)
# ---------------------------------------------------------------------------
def test_delayed_cdf_convolves_lazy_wait():
    repo = _repo_with(
        ts_samples=[0.010], tq_samples=[0.0], tb_samples=[0.100, 0.200], tg=0.0
    )
    predictor = ResponseTimePredictor(repo, 2.0)
    immediate, delayed = predictor.response_cdfs("r", 0.150)
    assert immediate == pytest.approx(1.0)
    # ts occurs both with and without tb in this constructed window; the S
    # pmf is a point mass at 10 ms, U is {100, 200} ms equally likely.
    assert delayed == pytest.approx(0.5)
    _, delayed_all = predictor.response_cdfs("r", 0.250)
    assert delayed_all == pytest.approx(1.0)


def test_delayed_cdf_never_exceeds_immediate():
    repo = _repo_with(
        ts_samples=[0.010, 0.050], tq_samples=[0.005], tb_samples=[0.3], tg=0.001
    )
    predictor = ResponseTimePredictor(repo, 2.0)
    for d in (0.02, 0.06, 0.2, 0.5):
        immediate, delayed = predictor.response_cdfs("r", d)
        assert delayed <= immediate + 1e-9


def test_lazy_wait_fallback_uniform_over_interval():
    """Before any t_b sample exists, U ~ Uniform(0, T_L)."""
    repo = _repo_with(ts_samples=[0.0], tq_samples=[0.0], tg=0.0)
    predictor = ResponseTimePredictor(repo, lazy_update_interval=1.0)
    _, delayed = predictor.response_cdfs("r", 0.5)
    assert delayed == pytest.approx(0.5, abs=0.01)
    _, delayed_full = predictor.response_cdfs("r", 1.0)
    assert delayed_full == pytest.approx(1.0, abs=0.01)


def test_lazy_wait_fallback_honours_the_announced_interval():
    """The publisher's live T_L (tuner or controller) takes precedence over
    the constructor's constant in the Uniform(0, T_L) fallback exactly as it
    does in the staleness factor's ``t_l`` modulo."""
    repo = _repo_with(ts_samples=[0.0], tq_samples=[0.0], tg=0.0)
    predictor = ResponseTimePredictor(repo, lazy_update_interval=1.0)
    assert predictor.response_cdfs("r", 0.25)[1] == pytest.approx(0.25, abs=0.01)

    def announce(lazy_interval):
        repo.record_staleness(
            PerfBroadcast(
                replica="p", ts=0.1, tq=0.0, tb=None,
                staleness=StalenessInfo(
                    n_u=10, t_u=5.0, n_l=0, t_l=0.0, lazy_interval=lazy_interval
                ),
            ),
            now=100.0,
        )

    announce(0.5)
    assert predictor.response_cdfs("r", 0.25)[1] == pytest.approx(0.5, abs=0.01)
    assert predictor.response_pmfs("r")[1].cdf(0.25) == pytest.approx(0.5, abs=0.01)
    # Both models read the same T_L: t_l = 0.7 s wraps at the announced 0.5 s.
    assert predictor.staleness_factor(3, now=100.7) == pytest.approx(
        poisson_cdf(3, 2.0 * 0.2)
    )
    announce(None)  # the publisher stopped tuning: back to the constant
    assert predictor.response_cdfs("r", 0.25)[1] == pytest.approx(0.25, abs=0.01)


# ---------------------------------------------------------------------------
# Staleness factor (Eq. 4)
# ---------------------------------------------------------------------------
def test_staleness_factor_matches_poisson_cdf():
    repo = ClientInfoRepository(10)
    repo.record_staleness(
        PerfBroadcast(
            replica="p",
            ts=0.1,
            tq=0.0,
            tb=None,
            staleness=StalenessInfo(n_u=10, t_u=5.0, n_l=0, t_l=0.5),
        ),
        now=100.0,
    )
    predictor = ResponseTimePredictor(repo, lazy_update_interval=2.0)
    # lambda_u = 2/s; at now=100.2, t_l = 0.5 + 0.2 = 0.7 -> mean 1.4.
    expected = poisson_cdf(3, 2.0 * 0.7)
    assert predictor.staleness_factor(3, now=100.2) == pytest.approx(expected)


def test_staleness_factor_one_without_updates():
    repo = ClientInfoRepository(10)
    predictor = ResponseTimePredictor(repo, 2.0)
    assert predictor.staleness_factor(0, now=5.0) == 1.0


def test_staleness_factor_decreases_with_time_since_lazy():
    repo = ClientInfoRepository(10)
    repo.record_staleness(
        PerfBroadcast(
            replica="p", ts=0.1, tq=0.0, tb=None,
            staleness=StalenessInfo(n_u=10, t_u=5.0, n_l=0, t_l=0.0),
        ),
        now=100.0,
    )
    predictor = ResponseTimePredictor(repo, lazy_update_interval=10.0)
    early = predictor.staleness_factor(2, now=100.5)
    late = predictor.staleness_factor(2, now=105.0)
    assert late < early


def test_staleness_factor_increases_with_threshold():
    repo = ClientInfoRepository(10)
    repo.record_staleness(
        PerfBroadcast(
            replica="p", ts=0.1, tq=0.0, tb=None,
            staleness=StalenessInfo(n_u=20, t_u=5.0, n_l=0, t_l=1.0),
        ),
        now=100.0,
    )
    predictor = ResponseTimePredictor(repo, lazy_update_interval=4.0)
    factors = [predictor.staleness_factor(a, now=101.0) for a in range(6)]
    assert all(b >= a for a, b in zip(factors, factors[1:]))


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------
def test_evaluation_counter_tracks_distribution_computations():
    repo = _repo_with(ts_samples=[0.01], tq_samples=[0.0])
    predictor = ResponseTimePredictor(repo, 2.0)
    predictor.immediate_cdf("r", 0.1)
    predictor.response_cdfs("r", 0.1)
    assert predictor.evaluations.value == 2


def test_constructor_validation():
    repo = ClientInfoRepository(10)
    with pytest.raises(ValueError):
        ResponseTimePredictor(repo, lazy_update_interval=0.0)
    with pytest.raises(ValueError):
        ResponseTimePredictor(repo, 2.0, quantum=0.0)
