"""Gray-failure campaign harness: cells, claims, CLI plumbing, and the two
reproducibility properties the campaign guarantees — detector-off runs are
bit-identical, and the suite is identical at any ``--jobs``."""

import contextlib
import dataclasses
import io
import json
import math

import pytest

from repro.core import detector as detector_module
from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.experiments import campaign, gray
from repro.experiments.campaign import (
    judge_claims,
    run_suite,
    suite_violations,
    summarize,
    write_metrics_artifact,
)
from repro.experiments.gray import CAMPAIGN, DETECTOR_CONFIG, run_gray_cell
from repro.net.latency import LanLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant, seed_for


@pytest.fixture(scope="module")
def short_pair():
    """One seed through both modes; shared across the module for speed."""
    detector = run_gray_cell(seed=303, mode="detector", duration=6.0)
    baseline = run_gray_cell(seed=303, mode="baseline", duration=6.0)
    return detector, baseline


def test_short_pair_cells_are_pinned(short_pair, cell_digest, work_series, pin):
    """Each mode's cell digest (``tests/experiments/conftest.py``), and the
    same without the work series (``work_free``): a change that only
    evaluates less moves the first and not the second."""
    for cell in short_pair:
        pin(f"gray.{cell.mode}", cell_digest(cell))
        pin(f"gray.{cell.mode}.work_free", cell_digest(cell, work_series))


def test_detector_cell_is_clean_and_actually_stormed(short_pair):
    detector, _ = short_pair
    assert detector.clean, detector.violations
    assert detector.gray_faults > 0
    assert detector.reads_issued > 0
    assert detector.suspects_total > 0  # the detector reacted
    assert detector.still_suspected == []  # every suspect was re-admitted
    assert detector.detection is not None
    assert detector.detection["false_positive_rate"] <= 0.5


def test_baseline_cell_runs_without_detector(short_pair):
    _, baseline = short_pair
    assert baseline.clean
    assert baseline.gray_faults > 0
    assert baseline.detector_ejections == 0
    assert baseline.detector_hedges == 0
    assert baseline.detector_probes == 0
    assert baseline.detection is None


def test_modes_see_the_same_fault_schedule(short_pair):
    detector, baseline = short_pair
    assert detector.gray_faults == baseline.gray_faults
    assert detector.faults_by_kind == baseline.faults_by_kind
    assert detector.reads_issued == baseline.reads_issued


def test_same_seed_cell_is_deterministic():
    a = run_gray_cell(seed=404, mode="detector", duration=5.0)
    b = run_gray_cell(seed=404, mode="detector", duration=5.0)
    assert a.latencies == b.latencies
    assert a.detector_ejections == b.detector_ejections
    assert a.detection == b.detection


def test_run_gray_cell_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_gray_cell(seed=1, mode="chaotic-neutral", duration=5.0)


def test_suite_flags_p99_regression(short_pair):
    detector, baseline = short_pair
    # Swap the latency pools so the detector looks *worse*: the
    # acceptance check must fire.
    worse = gray.GrayCellResult(**{**detector.__dict__})
    worse.latencies = [x + 0.5 for x in baseline.latencies]
    violations = suite_violations(CAMPAIGN, [worse, baseline])
    assert any(v.startswith("p99") for v in violations)


def test_suite_jobs_equivalence():
    """`--jobs 4` must produce exactly the single-process results."""
    seeds = [11, 12]
    serial = run_suite(CAMPAIGN, seeds, duration=5.0, jobs=1)
    parallel = run_suite(CAMPAIGN, seeds, duration=5.0, jobs=4)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert (a.seed, a.mode) == (b.seed, b.mode)
        assert a.latencies == b.latencies
        assert a.violations == b.violations
        assert a.detection == b.detection


def test_summarize_renders_table(short_pair):
    text = summarize(CAMPAIGN, list(short_pair))
    assert "gray-failure campaign" in text
    assert "eject/hedge/probe" in text


def test_metrics_artifact_round_trips(short_pair, tmp_path):
    path = tmp_path / "gray.jsonl"
    write_metrics_artifact(CAMPAIGN, str(path), list(short_pair), [303])
    records = [json.loads(line) for line in path.read_text().splitlines()]
    events = [r["event"] for r in records]
    assert events[0] == "meta"
    assert events.count("cell") == 2
    claims = [r for r in records if r["event"] == "claim"]
    assert [(c["claim"]["field"], c["claim"]["kind"]) for c in claims] == [
        ("p99", "wins"), ("sla_rate", "no worse"),
    ]
    # One seed is one pair: no claim can be won from it.
    assert sum(claims[0][k] for k in ("wins", "losses", "ties")) == 1
    assert not claims[0]["passed"]
    # Detector cells carry their ground-truth detection score.
    cells = {r["mode"]: r for r in records if r["event"] == "cell"}
    assert cells["detector"]["detection"] is not None
    assert cells["baseline"]["detection"] is None


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """``repro gray --quick --check`` at base seed 0: its exit code, its
    stdout, and the cells its suite ran."""
    out = tmp_path_factory.mktemp("gray-quick") / "gray.jsonl"
    suites = []

    def run_and_keep(*args, **kwargs):
        suites.append(run_suite(*args, **kwargs))
        return suites[-1]

    capture = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(capture):
        patch.setattr(campaign, "run_suite", run_and_keep)
        code = gray.main(
            ["--quick", "--check", "--jobs", "2", "--metrics-out", str(out)]
        )
    assert out.exists()
    (results,) = suites
    return code, capture.getvalue(), results


def test_main_quick_check_passes(quick_run):
    """Every quick cell is clean and both claims pass."""
    code, out, results = quick_run
    assert code == 0
    assert "claims (paired by seed" in out
    assert all(r.clean for r in results)
    assert all(v.passed for v in judge_claims(CAMPAIGN.claims, results))


def test_a_detector_that_never_trips_fails_the_p99_claim(quick_run, monkeypatch):
    """The quick shape's p99 claim kills a detector whose thresholds are
    never reached: it neither ejects nor hedges, ties the baseline on
    every seed, and wins nothing.  (The cells run in forked workers,
    which inherit the patch.)"""
    _, _, results = quick_run
    monkeypatch.setattr(detector_module, "PHI_SUSPECT", math.inf)
    monkeypatch.setattr(detector_module, "PHI_HEDGE", math.inf)
    baseline = [r for r in results if r.mode == "baseline"]
    null = run_suite(
        dataclasses.replace(CAMPAIGN, modes=("detector",)),
        [r.seed for r in baseline], CAMPAIGN.quick[1], jobs=2,
    )
    p99, sla = judge_claims(CAMPAIGN.claims, null + baseline)
    assert not p99.passed and p99.wins == 0
    assert sla.passed


def test_the_baseline_on_a_fresh_stream_is_not_a_win(quick_run):
    """The baseline against itself on other seeds (base seed 1), paired by
    index under the detector's name, must not be declared a win."""
    _, _, results = quick_run
    baseline = [r for r in results if r.mode == "baseline"]
    n, duration = CAMPAIGN.quick
    fresh = run_suite(
        dataclasses.replace(CAMPAIGN, modes=("baseline",)),
        [seed_for(1, "gray", i) for i in range(n)], duration, jobs=2,
    )
    relabelled = [
        dataclasses.replace(f, mode="detector", seed=b.seed)
        for f, b in zip(fresh, baseline)
    ]
    p99, _ = judge_claims(CAMPAIGN.claims, relabelled + baseline)
    assert not p99.passed
    assert p99.wins + p99.losses > 0  # the streams really differ


@pytest.mark.parametrize("index", [10, 45])
def test_every_suspect_is_readmitted_after_the_heal(index):
    """Regression: at the default cell length these two cells kept a
    healed replica suspected to the end — re-admitted, it went quiet
    (the client no longer read from it) and the pre-heal fit read the
    quiet as a fresh failure until the reader, and its probes, stopped."""
    result = run_gray_cell(seed_for(0, "gray", index), "detector", 14.0)
    assert result.still_suspected == []
    assert result.clean, result.violations


@pytest.mark.parametrize("index", [6, 9])
def test_a_storm_of_slow_nodes_may_leave_the_detector_idle(index, monkeypatch):
    """Regression: these 8 s cells' storms put no one-way partition on a
    serving replica (slow nodes, and in cell 6 one flapping link), and the
    slow nodes still answered at the read cadence and cost no deadline.
    The cell check asks for no suspicion there, so a detector that never
    trips is not called idle on them."""
    result = run_gray_cell(seed_for(0, "gray", index), "detector", 8.0)
    assert "oneway_partition" not in result.faults_by_kind
    assert result.timing_failures == 0
    assert result.clean, result.violations
    monkeypatch.setattr(detector_module, "PHI_SUSPECT", math.inf)
    idle = run_gray_cell(seed_for(0, "gray", index), "detector", 8.0)
    assert idle.suspects_total == 0
    assert idle.clean, idle.violations


def test_a_primary_that_missed_a_view_change_gets_it_after_the_heal():
    """Regression: in this cell a flap cut svc-p3 off while the primary
    view that evicts svc-p2 was multicast.  svc-p3 kept the old view, so on
    the next slow-publisher report it moved the publisher role to the
    evicted svc-p2 while the other primaries moved it to svc-p3; nobody
    published again and the stalled secondaries stayed suspected to the end
    (``permanent-ejection``).  The membership service now resends a lost
    view once its recipient can be reached."""
    result = run_gray_cell(seed_for(0, "gray", 177), "detector", 14.0)
    assert result.clean, result.violations


def test_detector_idle_kills_a_detector_that_never_trips(monkeypatch):
    """The cell check still fails a detector whose threshold is never
    reached, on a cell where a one-way partition cut a serving replica."""
    monkeypatch.setattr(detector_module, "PHI_SUSPECT", math.inf)
    result = run_gray_cell(seed_for(0, "gray", 0), "detector", 14.0)
    assert any(f.startswith("oneway") for f in result.faults_by_kind)
    assert any(v.startswith("detector-idle") for v in result.violations)


# ---------------------------------------------------------------------------
# Bit-identical when disabled
# ---------------------------------------------------------------------------
def run_calm_cell(detector_config, broadcast_stamps):
    """A fault-free service run; returns the full trace for comparison.
    Its reads' stamps are broadcast, as a detector's client's are."""

    config = ServiceConfig(
        name="svc",
        num_primaries=2,
        num_secondaries=2,
        lazy_update_interval=0.3,
        read_service_time=Constant(0.010),
        detector=detector_config,
    )
    testbed = build_testbed(
        config, seed=31, latency=LanLatency(mean_s=0.001, jitter_s=0.001)
    )
    client = testbed.service.create_client("c", read_only_methods={"get"})
    broadcast_stamps(client)
    qos = QoSSpec(staleness_threshold=10, deadline=0.5, min_probability=0.9)
    outcomes = []

    def run():
        for _ in range(40):
            yield client.call("increment")
            yield Timeout(0.02)
            outcomes.append((yield client.call("get", (), qos)))
            yield Timeout(0.02)

    Process(testbed.sim, run())
    testbed.sim.run(until=30.0)
    # The observable behavior (values, timing, routing) must match.
    return [
        (o.value, round(o.response_time, 12), o.first_replica,
         o.replicas_selected, o.gsn, o.timing_failure)
        for o in outcomes
    ]


def test_detector_is_bit_identical_on_a_calm_network(broadcast_stamps):
    """With no faults the detector must be a pure observer: same replies
    from the same replicas at the same instants as a detector-free run."""
    assert run_calm_cell(None, broadcast_stamps) == run_calm_cell(
        DETECTOR_CONFIG, broadcast_stamps
    )
