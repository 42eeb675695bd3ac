"""Acceptance: burn alerts lead the degradation ladder in an overload storm.

The SLO engine exists to give operators (and the future adaptive
controller) advance warning.  This pins the ISSUE's acceptance
scenario: in a seeded overload storm with a cautious degradation ladder
(1 s step cooldown), the fast-burn page on the bulk timeliness SLO fires
*before* the bulk client's ladder reaches CRITICAL — and the matching
calm run raises no alert at all.
"""

from __future__ import annotations

import pytest

from repro.core.overload import CRITICAL
from repro.experiments.overload import run_overload_cell
from repro.obs.slo import SloEngine, SloSpec
from repro.obs.timeseries import Timeline

SEED = 202
DURATION = 8.0
#: A 1 s step cooldown: the operationally cautious ladder an operator
#: would run when alerts, not automatic shedding, are the first response.
CAUTIOUS_COOLDOWN = 1.0

BULK_SLO = SloSpec(
    name="timeliness:bulk",
    objective=0.99,
    client="bulk",
    fast_window=1.0,
    slow_window=6.0,
)


@pytest.fixture(scope="module")
def storm():
    return run_overload_cell(
        SEED, "shed", duration=DURATION, step_cooldown=CAUTIOUS_COOLDOWN
    )


@pytest.fixture(scope="module")
def calm():
    return run_overload_cell(
        SEED,
        "shed",
        duration=DURATION,
        calm=True,
        step_cooldown=CAUTIOUS_COOLDOWN,
    )


def _first_critical_tick(timeline: Timeline, client: str):
    """First tick at which the client's ladder gauge reads CRITICAL."""
    series = 'client_degradation_level{client="%s"}' % client
    if series not in timeline.series:
        return None
    for tick, value in enumerate(timeline.values(series)):
        if value is not None and value >= CRITICAL:
            return tick
    return None


@pytest.mark.slow
def test_fast_burn_page_leads_critical_degradation(storm):
    timeline = Timeline.from_dict(storm.timeline)
    report = SloEngine([BULK_SLO]).evaluate(timeline)["timeliness:bulk"]
    page = report.first_alert("page")
    assert page is not None, "storm never paged"
    critical_tick = _first_critical_tick(timeline, "bulk")
    assert critical_tick is not None, "storm never reached CRITICAL"
    assert page.tick < critical_tick, (
        f"page at tick {page.tick} did not lead CRITICAL at {critical_tick}"
    )
    assert not report.met()


@pytest.mark.slow
def test_calm_run_raises_no_alert(calm):
    assert calm.clean
    timeline = Timeline.from_dict(calm.timeline)
    report = SloEngine([BULK_SLO]).evaluate(timeline)["timeliness:bulk"]
    assert report.alerts == []
    assert report.met()
    assert _first_critical_tick(timeline, "bulk") is None


@pytest.mark.slow
def test_storm_attribution_components_stay_additive(storm):
    """Aggregated components never exceed the observed staleness total."""
    from repro.obs.slo import attribution_summary

    summary = attribution_summary(Timeline.from_dict(storm.timeline))
    total = sum(summary["components"].values())
    assert total <= summary["observed_seconds"] + 1e-9
