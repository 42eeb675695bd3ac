"""SLO specs, burn-rate math, alert edges, and staleness attribution."""

from __future__ import annotations

import pytest

from repro.obs.slo import (
    ATTRIBUTION_COMPONENTS,
    SloEngine,
    SloSpec,
    attribution_summary,
    parse_series,
)
from repro.obs.timeseries import Timeline


# ---------------------------------------------------------------------------
# parse_series / spec validation
# ---------------------------------------------------------------------------
def test_parse_series_splits_name_and_labels():
    assert parse_series("reads_total") == ("reads_total", {})
    assert parse_series('reads_total{client="a"}') == (
        "reads_total",
        {"client": "a"},
    )
    name, labels = parse_series('x{client="a",priority="gold",region="eu"}')
    assert name == "x"
    assert labels == {"client": "a", "priority": "gold", "region": "eu"}


def test_spec_validation_and_budget():
    spec = SloSpec(name="t", objective=0.9)
    assert spec.budget == pytest.approx(0.1)
    assert spec.selector() == {}
    with pytest.raises(ValueError):
        SloSpec(name="bad", objective=1.0)
    with pytest.raises(ValueError):
        SloSpec(name="bad", objective=0.0)
    with pytest.raises(ValueError):
        SloSpec(name="bad", objective=0.9, kind="latency")
    with pytest.raises(ValueError):
        SloSpec(name="bad", objective=0.9, kind="staleness")


def test_spec_selector_includes_only_set_labels():
    spec = SloSpec(name="t", objective=0.9, client="a", region="eu")
    assert spec.selector() == {"client": "a", "region": "eu"}


def test_engine_rejects_duplicate_spec_names():
    spec = SloSpec(name="t", objective=0.9)
    with pytest.raises(ValueError):
        SloEngine([spec, SloSpec(name="t", objective=0.99)])


# ---------------------------------------------------------------------------
# Timeliness compliance and burn alerts over a synthetic timeline
# ---------------------------------------------------------------------------
def _timeliness_timeline():
    """10 judged reads per tick; 2 failures on ticks 3 and 4."""
    return Timeline(
        1.0,
        start=0,
        length=10,
        series={
            'client_reads_judged{client="a"}': {
                "type": "counter",
                "deltas": [10] * 10,
            },
            'client_timing_failures{client="a"}': {
                "type": "counter",
                "deltas": [0, 0, 0, 2, 2, 0, 0, 0, 0, 0],
            },
        },
    )


def _spec(**overrides):
    base = dict(name="timeliness:a", objective=0.99, client="a")
    base.update(overrides)
    return SloSpec(**base)


def test_compliance_and_budget_consumed_are_cumulative():
    report = SloEngine([_spec()]).evaluate(_timeliness_timeline())["timeliness:a"]
    assert report.times == [float(i + 1) for i in range(10)]
    assert sum(report.good) == 96
    assert sum(report.bad) == 4
    assert report.compliance[2] == pytest.approx(1.0)
    assert report.compliance[3] == pytest.approx(38 / 40)
    assert report.compliance[-1] == pytest.approx(96 / 100)
    # 4 bad out of a budget of 100 * 0.01 = 1 allowed: 4x over.
    assert report.budget_consumed[-1] == pytest.approx(4.0)
    assert not report.met()


def test_fast_burn_pages_on_the_bad_tick_only():
    report = SloEngine([_spec()]).evaluate(_timeliness_timeline())["timeliness:a"]
    # Fast window = 1 tick: burn on tick 3 is (2/10) / 0.01 = 20.
    assert report.fast_burn[3] == pytest.approx(20.0)
    assert report.fast_burn[5] == pytest.approx(0.0)
    page = report.first_alert("page")
    assert page is not None
    assert (page.tick, page.time) == (3, 4.0)
    assert page.burn == pytest.approx(20.0)
    # One rising edge: tick 4 keeps the alert active, no second alert.
    assert [a.severity for a in report.alerts].count("page") == 1
    assert report.alert_active[3] and report.alert_active[4]
    assert not report.alert_active[5]


def test_slow_burn_ticket_requires_short_window_confirmation():
    report = SloEngine([_spec()]).evaluate(_timeliness_timeline())["timeliness:a"]
    # Tick 4: window covers ticks 0-4 -> 4 bad / 50 = 0.08 -> burn 8 >= 6,
    # and the 1-tick confirmation window burns at 20: ticket fires.
    ticket = report.first_alert("ticket")
    assert ticket is not None
    assert ticket.tick == 4
    # Tick 5: the 6-tick window still burns at (4/60)/0.01 = 6.67 >= 6 but
    # the confirmation window (tick 5 alone) is clean, so no new ticket.
    assert report.slow_burn[5] == pytest.approx((4 / 60) / 0.01)
    assert [a.severity for a in report.alerts].count("ticket") == 1


def test_selector_mismatch_sees_no_events():
    engine = SloEngine([_spec(name="timeliness:b", client="b")])
    report = engine.evaluate(_timeliness_timeline())["timeliness:b"]
    assert sum(report.good) == 0 and sum(report.bad) == 0
    assert all(c == 1.0 for c in report.compliance)
    assert report.alerts == []
    assert report.met()


def test_empty_timeline_yields_empty_report_that_is_met():
    report = SloEngine([_spec()]).evaluate(Timeline(1.0))["timeliness:a"]
    assert report.times == []
    assert report.met()
    assert report.first_alert() is None


def test_spec_registered_mid_run_sees_only_the_suffix():
    # A spec evaluated against a timeline that starts mid-run (earlier
    # ticks already garbage-collected): compliance and burn cover the
    # surviving suffix only, with no index errors at the seam.
    timeline = Timeline(
        1.0,
        start=5,
        length=5,
        series={
            'client_reads_judged{client="a"}': {
                "type": "counter",
                "deltas": [10] * 5,
            },
            'client_timing_failures{client="a"}': {
                "type": "counter",
                "deltas": [0, 2, 0, 0, 0],
            },
        },
    )
    report = SloEngine([_spec()]).evaluate(timeline)["timeliness:a"]
    assert report.times == [6.0, 7.0, 8.0, 9.0, 10.0]
    assert sum(report.good) == 48 and sum(report.bad) == 2
    signals = SloEngine([_spec()]).signals(timeline)["timeliness:a"]
    assert signals["time"] == 10.0
    assert signals["compliance"] == pytest.approx(48 / 50)


def test_all_shed_window_burns_nothing():
    # Ticks where every read was shed (zero judged events) are *no
    # evidence*: burn must be 0.0 there — never NaN or a division error —
    # and compliance holds its last value.
    timeline = Timeline(
        1.0,
        start=0,
        length=6,
        series={
            'client_reads_judged{client="a"}': {
                "type": "counter",
                "deltas": [10, 10, 0, 0, 0, 10],
            },
            'client_timing_failures{client="a"}': {
                "type": "counter",
                "deltas": [0, 1, 0, 0, 0, 0],
            },
        },
    )
    report = SloEngine([_spec()]).evaluate(timeline)["timeliness:a"]
    # Fast window (1 tick) over the shed ticks: empty -> zero burn.
    assert report.fast_burn[2] == 0.0
    assert report.fast_burn[3] == 0.0
    assert report.compliance[4] == pytest.approx(19 / 20)
    signals = SloEngine([_spec()]).signals(timeline)["timeliness:a"]
    assert signals["fast_burn"] == 0.0
    assert signals["fast_burn"] == signals["fast_burn"]  # not NaN


def test_degenerate_budget_never_divides_by_zero():
    # The burn kernel's denominator guard: a budget of exactly zero must
    # not raise ZeroDivisionError or yield NaN — bad events burn
    # "infinitely", clean windows burn nothing.  (SloSpec validation
    # keeps objective < 1, so this is only reachable through the kernel;
    # the tightest representable spec must stay finite and NaN-free.)
    from repro.obs.slo import _burn

    cum_total = [0.0, 10.0, 20.0]
    cum_bad = [0.0, 0.0, 2.0]
    assert _burn(cum_total, cum_bad, 1, 1, 0.0) == float("inf")
    assert _burn(cum_total, cum_bad, 0, 1, 0.0) == 0.0
    spec = _spec(objective=0.99999999999999)
    report = SloEngine([spec]).evaluate(_timeliness_timeline())["timeliness:a"]
    for burn in report.fast_burn + report.slow_burn:
        assert burn == burn  # no NaN anywhere
        assert burn != float("inf")


def test_signals_zero_judged_reads_everywhere():
    # A timeline with ticks but no judged events at all: compliance 1.0,
    # full budget, zero burn (the no-evidence defaults, not NaN).
    timeline = Timeline(
        1.0,
        start=0,
        length=4,
        series={
            'client_reads_judged{client="a"}': {
                "type": "counter",
                "deltas": [0, 0, 0, 0],
            },
        },
    )
    signals = SloEngine([_spec()]).signals(timeline)["timeliness:a"]
    assert signals["compliance"] == 1.0
    assert signals["budget_remaining"] == 1.0
    assert signals["fast_burn"] == 0.0
    assert signals["slow_burn"] == 0.0
    assert signals["alerting"] == 0.0


# ---------------------------------------------------------------------------
# Staleness-kind specs bucket against the bound
# ---------------------------------------------------------------------------
def _staleness_timeline():
    return Timeline(
        1.0,
        start=0,
        length=1,
        series={
            'replica_staleness_wait_seconds{client="a"}': {
                "type": "histogram",
                "boundaries": [0.1, 1.0],
                "counts": [[5, 3, 2]],
                "sums": [2.9],
                "totals": [10],
            },
        },
    )


def test_staleness_spec_counts_buckets_above_bound_as_bad():
    spec = SloSpec(
        name="stale:a",
        objective=0.9,
        kind="staleness",
        staleness_bound=0.5,
        client="a",
    )
    report = SloEngine([spec]).evaluate(_staleness_timeline())["stale:a"]
    # Buckets with upper edge 1.0 and +inf exceed the 0.5 s bound: 5 bad.
    assert sum(report.bad) == 5
    assert report.compliance[-1] == pytest.approx(0.5)


def test_staleness_spec_with_loose_bound_is_clean():
    spec = SloSpec(
        name="stale:a",
        objective=0.9,
        kind="staleness",
        staleness_bound=2.0,
    )
    report = SloEngine([spec]).evaluate(_staleness_timeline())["stale:a"]
    # Only the +inf overflow bucket exceeds a 2.0 s bound.
    assert sum(report.bad) == 2


# ---------------------------------------------------------------------------
# signals(): the stable controller surface
# ---------------------------------------------------------------------------
SIGNAL_KEYS = {
    "time",
    "compliance",
    "objective",
    "budget_remaining",
    "fast_burn",
    "slow_burn",
    "alerting",
}


def test_signals_populated_timeline():
    signals = SloEngine([_spec()]).signals(_timeliness_timeline())
    out = signals["timeliness:a"]
    assert set(out) == SIGNAL_KEYS
    assert out["time"] == 10.0
    assert out["compliance"] == pytest.approx(0.96)
    assert out["objective"] == 0.99
    assert out["budget_remaining"] == pytest.approx(1.0 - 4.0)
    assert out["alerting"] == 0.0


def test_signals_empty_timeline_defaults():
    out = SloEngine([_spec()]).signals(Timeline(1.0))["timeliness:a"]
    assert set(out) == SIGNAL_KEYS
    assert out == {
        "time": 0.0,
        "compliance": 1.0,
        "objective": 0.99,
        "budget_remaining": 1.0,
        "fast_burn": 0.0,
        "slow_burn": 0.0,
        "alerting": 0.0,
    }


# ---------------------------------------------------------------------------
# Attribution aggregation
# ---------------------------------------------------------------------------
def _attribution_timeline():
    series = {
        'replica_staleness_wait_seconds{replica="r1"}': {
            "type": "histogram",
            "boundaries": [1.0],
            "counts": [[3, 1]],
            "sums": [2.4],
            "totals": [4],
        },
    }
    for component, amount in (
        ("lazy_publisher", 1.5),
        ("queue", 0.6),
        ("network", 0.3),
    ):
        key = 'replica_staleness_wait_component_seconds{component="%s"}' % component
        series[key] = {"type": "counter", "deltas": [amount]}
    return Timeline(1.0, start=0, length=1, series=series)


def test_attribution_summary_from_timeline():
    summary = attribution_summary(_attribution_timeline())
    assert summary["observed_seconds"] == pytest.approx(2.4)
    assert summary["reads"] == 4
    assert set(summary["components"]) == set(ATTRIBUTION_COMPONENTS)
    assert sum(summary["components"].values()) == pytest.approx(
        summary["observed_seconds"]
    )
    assert summary["fractions"]["lazy_publisher"] == pytest.approx(1.5 / 2.4)
    assert sum(summary["fractions"].values()) == pytest.approx(1.0)


def test_attribution_summary_from_snapshot():
    snapshot = {
        'replica_staleness_wait_seconds{replica="r1"}': {
            "type": "histogram",
            "sum": 2.0,
            "count": 3,
        },
        'replica_staleness_wait_component_seconds{component="queue"}': {
            "type": "counter",
            "value": 0.5,
        },
        'replica_staleness_wait_component_seconds{component="lazy_publisher"}': {
            "type": "counter",
            "value": 1.5,
        },
        'replica_staleness_wait_component_seconds{component="network"}': {
            "type": "counter",
            "value": 0.0,
        },
    }
    summary = attribution_summary(snapshot)
    assert summary["observed_seconds"] == pytest.approx(2.0)
    assert summary["reads"] == 3
    assert summary["components"]["queue"] == pytest.approx(0.5)
    assert summary["fractions"]["network"] == 0.0


def test_attribution_summary_empty_sources():
    for source in (Timeline(1.0), {}):
        summary = attribution_summary(source)
        assert summary["observed_seconds"] == 0.0
        assert summary["reads"] == 0
        assert all(v == 0.0 for v in summary["fractions"].values())
