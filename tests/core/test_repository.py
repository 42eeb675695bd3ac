"""Unit tests for the client-side information repository."""

import math

import pytest

from repro.core.repository import ClientInfoRepository
from repro.core.requests import PerfBroadcast, StalenessInfo


def _broadcast(replica="r1", ts=0.1, tq=0.01, tb=None, staleness=None):
    return PerfBroadcast(replica=replica, ts=ts, tq=tq, tb=tb, staleness=staleness)


def test_broadcast_fills_windows():
    repo = ClientInfoRepository(window_size=3)
    repo.record_broadcast(_broadcast(ts=0.1, tq=0.01))
    repo.record_broadcast(_broadcast(ts=0.2, tq=0.02, tb=0.5))
    stats = repo.stats_for("r1")
    assert stats.ts_window.samples() == [0.1, 0.2]
    assert stats.tq_window.samples() == [0.01, 0.02]
    assert stats.tb_window.samples() == [0.5]  # only deferred reads record tb
    assert stats.broadcasts_received == 2
    assert stats.has_history


def test_windows_keep_most_recent_l():
    repo = ClientInfoRepository(window_size=2)
    for ts in (0.1, 0.2, 0.3):
        repo.record_broadcast(_broadcast(ts=ts))
    assert repo.stats_for("r1").ts_window.samples() == [0.2, 0.3]


def test_stats_separate_per_replica():
    repo = ClientInfoRepository(4)
    repo.record_broadcast(_broadcast(replica="a", ts=0.1))
    repo.record_broadcast(_broadcast(replica="b", ts=0.9))
    assert repo.stats_for("a").ts_window.samples() == [0.1]
    assert repo.stats_for("b").ts_window.samples() == [0.9]


def test_ert_infinite_before_any_reply():
    repo = ClientInfoRepository(4)
    assert math.isinf(repo.ert("never-heard", now=100.0))


def test_ert_measures_time_since_read_reply():
    repo = ClientInfoRepository(4)
    repo.record_reply("r1", tg=0.001, now=10.0, read=True)
    assert repo.ert("r1", now=12.5) == pytest.approx(2.5)


def test_update_replies_do_not_touch_ert():
    """Update acks must not depress a replica's ert (hot-spot rotation is
    about read service; see repository docstring)."""
    repo = ClientInfoRepository(4)
    repo.record_reply("r1", tg=0.001, now=10.0, read=False)
    assert math.isinf(repo.ert("r1", now=11.0))
    assert repo.stats_for("r1").latest_tg == 0.001  # but tg is refreshed


def test_gateway_delay_clamped_non_negative():
    repo = ClientInfoRepository(4)
    repo.record_reply("r1", tg=-0.005, now=1.0)
    assert repo.stats_for("r1").latest_tg == 0.0


def test_staleness_fields_recorded():
    repo = ClientInfoRepository(4)
    info = StalenessInfo(n_u=6, t_u=3.0, n_l=2, t_l=0.4)
    repo.record_staleness(_broadcast(staleness=info), now=50.0)
    assert repo.update_arrival_rate() == pytest.approx(2.0)
    assert repo.latest_lazy.n_l == 2
    assert repo.latest_lazy.received_at == 50.0


def test_staleness_ignored_without_info():
    repo = ClientInfoRepository(4)
    repo.record_staleness(_broadcast(staleness=None), now=1.0)
    assert repo.latest_lazy is None
    assert repo.update_arrival_rate() == 0.0


def test_update_rate_over_sliding_window():
    repo = ClientInfoRepository(window_size=2)
    for n_u, t_u in [(100, 1.0), (4, 2.0), (2, 1.0)]:
        repo.record_staleness(
            _broadcast(staleness=StalenessInfo(n_u, t_u, 0, 0.0)), now=1.0
        )
    # Window keeps the last two pairs: (4+2)/(2+1) = 2.
    assert repo.update_arrival_rate() == pytest.approx(2.0)


def test_zero_duration_pairs_skipped():
    repo = ClientInfoRepository(4)
    repo.record_staleness(
        _broadcast(staleness=StalenessInfo(5, 0.0, 1, 0.1)), now=1.0
    )
    assert repo.update_arrival_rate() == 0.0  # no time mass recorded


def test_time_since_lazy_update_modulo():
    """t_l = (t_L + t_z) mod T_L (§5.4.1)."""
    repo = ClientInfoRepository(4)
    repo.record_staleness(
        _broadcast(staleness=StalenessInfo(1, 1.0, 0, 0.5)), now=10.0
    )
    # t_z = 0.3 -> 0.8; under T_L=2.0 no wrap.
    assert repo.time_since_lazy_update(10.3, 2.0) == pytest.approx(0.8)
    # t_z = 3.7 -> 4.2; mod 2.0 -> 0.2 (two lazy updates passed meanwhile).
    assert repo.time_since_lazy_update(13.7, 2.0) == pytest.approx(0.2)


def test_time_since_lazy_update_defaults_to_zero():
    repo = ClientInfoRepository(4)
    assert repo.time_since_lazy_update(5.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        repo.time_since_lazy_update(5.0, 0.0)


def test_window_size_validated():
    with pytest.raises(ValueError):
        ClientInfoRepository(0)
