"""Full-stack overload campaigns: seeded storms through the shed and
unbounded configurations, the invariant audit, and the CLI plumbing."""

import contextlib
import dataclasses
import io
import json

import pytest

from repro.core.overload import DegradationPolicy
from repro.core.replica import ReplicaHandlerBase
from repro.experiments import overload
from repro.experiments.campaign import (
    effective_latency,
    judge_claims,
    percentile,
    run_suite,
    suite_violations,
    summarize,
    write_metrics_artifact,
)
from repro.experiments.overload import (
    CAMPAIGN,
    OverloadCellResult,
    run_overload_cell,
)


@pytest.fixture(scope="module")
def short_pair():
    """One seed through both modes; shared across the module for speed."""
    shed = run_overload_cell(seed=202, mode="shed", duration=6.0)
    unbounded = run_overload_cell(seed=202, mode="unbounded", duration=6.0)
    return shed, unbounded


def test_short_pair_cells_are_pinned(short_pair, cell_digest, work_series, pin):
    """Each mode's cell digest (``tests/experiments/conftest.py``), and the
    same without the work series (``work_free``): a change that only
    evaluates less moves the first and not the second."""
    for cell in short_pair:
        pin(f"overload.{cell.mode}", cell_digest(cell))
        pin(f"overload.{cell.mode}.work_free", cell_digest(cell, work_series))


def test_shed_cell_is_clean_and_actually_stormed(short_pair):
    shed, _ = short_pair
    assert shed.clean, shed.violations
    assert shed.storms > 0
    assert shed.vip_issued > 0
    assert shed.overload_replies > 0  # replicas really bounced reads
    assert shed.replica_reads_shed > 0
    assert shed.degradation_steps_down > 0  # the ladder engaged


def test_unbounded_cell_never_sheds(short_pair):
    _, unbounded = short_pair
    assert unbounded.clean  # no audit runs, so no violations either
    assert unbounded.storms > 0
    assert unbounded.overload_replies == 0
    assert unbounded.replica_reads_shed == 0
    assert unbounded.client_reads_shed == 0
    assert unbounded.degradation_steps_down == 0


def test_queue_peaks_bounded_only_under_shedding(short_pair):
    shed, unbounded = short_pair
    bound = overload.SHED_CONFIG.queue_capacity + 2
    assert shed.queue_depth_peaks
    assert all(peak <= bound for peak in shed.queue_depth_peaks.values())
    # The unbounded cell is the control: storms push at least one queue
    # past the shed bound, otherwise the comparison proves nothing.
    assert max(unbounded.queue_depth_peaks.values()) > bound


def test_suite_p99_acceptance_holds(short_pair):
    """The seed is one pair, and shedding wins it (one pair alone cannot
    pass the claim: the quick shape's eight can)."""
    shed, unbounded = short_pair
    (verdict,) = judge_claims(CAMPAIGN.claims, [shed, unbounded])
    assert (verdict.wins, verdict.losses, verdict.ties) == (1, 0, 0)
    assert shed.vip_p99 < unbounded.vip_p99


def test_same_seed_cell_is_deterministic():
    first = run_overload_cell(seed=77, mode="shed", duration=4.0)
    second = run_overload_cell(seed=77, mode="shed", duration=4.0)
    assert first.events == second.events
    assert first.vip_latencies == second.vip_latencies
    assert first.queue_depth_peaks == second.queue_depth_peaks


def test_percentile_and_effective_latency_helpers():
    assert percentile([], 0.99) == float("inf")
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.99) == 4.0

    class Outcome:
        def __init__(self, value, response_time):
            self.value = value
            self.response_time = response_time

    assert effective_latency(Outcome(1, 0.2), deadline=0.5) == 0.2
    assert effective_latency(Outcome(None, None), deadline=0.5) == 1.0
    assert effective_latency(Outcome(1, None), deadline=0.5) == 1.0


def test_run_overload_cell_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_overload_cell(seed=1, mode="bursty")


def test_suite_flags_p99_regression():
    good = OverloadCellResult(
        seed=1, mode="shed", duration=1.0, violations=[], storms=1,
        vip_issued=3, vip_resolved=3, vip_timing_failures=0,
        vip_latencies=[0.9, 0.9, 0.9], bulk_issued=3,
        bulk_timing_failures=0, replica_reads_shed=1, client_reads_shed=0,
        overload_replies=1, degradation_steps_down=1, degradation_steps_up=1,
    )
    bad = OverloadCellResult(
        seed=1, mode="unbounded", duration=1.0, violations=[], storms=1,
        vip_issued=3, vip_resolved=3, vip_timing_failures=0,
        vip_latencies=[0.1, 0.1, 0.1], bulk_issued=3,
        bulk_timing_failures=0, replica_reads_shed=0, client_reads_shed=0,
        overload_replies=0, degradation_steps_down=0, degradation_steps_up=0,
    )
    flagged = suite_violations(CAMPAIGN, [good, bad])
    assert len(flagged) == 1
    assert flagged[0].startswith("vip_p99:")
    assert "(0 won, 1 lost, 0 tied" in flagged[0]


def test_suite_dumps_trace_artifact_on_violation(tmp_path, monkeypatch):
    monkeypatch.setattr(
        overload,
        "_check_overload_invariants",
        lambda *args, **kwargs: ["synthetic: planted"],
    )
    result = run_overload_cell(
        seed=42, mode="shed", duration=4.0, trace_dir=str(tmp_path)
    )
    assert not result.clean
    artifact = tmp_path / "overload-seed42-shed.trace"
    assert artifact.exists()
    content = artifact.read_text()
    assert "VIOLATION synthetic: planted" in content
    assert "EVENT" in content
    jsonl = tmp_path / "overload-seed42-shed.jsonl"
    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert lines  # the jsonl twin parses


def test_summarize_renders_table_and_telemetry(short_pair):
    text = summarize(CAMPAIGN, list(short_pair))
    assert "overload campaign" in text
    assert "CLEAN" in text
    assert "shed-cell telemetry" in text
    assert "degradation_steps_down" in text


def test_metrics_artifact_round_trips(short_pair, tmp_path):
    path = tmp_path / "overload.jsonl"
    write_metrics_artifact(CAMPAIGN, str(path), list(short_pair), seeds=[202])
    records = [json.loads(line) for line in path.read_text().splitlines()]
    meta = records[0]
    assert meta["event"] == "meta"
    assert meta["experiment"] == "overload"
    assert meta["seeds"] == [202]
    cells = [r for r in records if r["event"] == "cell"]
    (claim,) = [r for r in records if r["event"] == "claim"]
    assert {c["mode"] for c in cells} == {"shed", "unbounded"}
    assert claim["claim"] == {
        "treatment": "shed", "baseline": "unbounded", "field": "vip_p99",
        "better": "lower", "kind": "wins",
    }
    assert (claim["wins"], claim["losses"]) == (1, 0)
    assert claim["median"] == pytest.approx(
        short_pair[0].vip_p99 - short_pair[1].vip_p99
    )


#: A shape that powers the claim and costs less than ``--quick``: six
#: seeds won of six is p = 1/64.
SEEDS, DURATION = 6, 4.0


@pytest.fixture(scope="module")
def checked_run(tmp_path_factory):
    """``repro overload --check`` at base seed 0: exit code, stdout, the
    saved document and the metrics artifact's path."""
    tmp = tmp_path_factory.mktemp("overload-check")
    save, metrics_out = tmp / "overload.json", tmp / "overload-metrics.jsonl"
    capture = io.StringIO()
    with contextlib.redirect_stdout(capture):
        code = overload.main([
            "--seeds", str(SEEDS), "--duration", str(DURATION), "--check",
            "--jobs", "2", "--save", str(save), "--metrics-out", str(metrics_out),
        ])
    return code, capture.getvalue(), json.loads(save.read_text()), metrics_out


def test_main_runs_checks_and_saves(checked_run):
    code, out, document, metrics_out = checked_run
    assert code == 0
    assert "overload campaign" in out
    assert metrics_out.exists()
    assert document["meta"]["experiment"] == "overload"
    assert document["meta"]["violations"] == []
    assert len(document["results"]) == 2 * SEEDS  # seeds x modes


def test_a_ladder_that_never_sheds_or_steps_fails_the_claim(checked_run, monkeypatch):
    """At the shape where shedding passes its claim, an ``OverloadConfig``
    whose replicas never shed and whose clients' ladders never step fails
    it: its cells tie the unbounded ones on every seed.  (The cells run in
    forked workers, which inherit the patches.)"""
    _, _, document, _ = checked_run
    monkeypatch.setattr(ReplicaHandlerBase, "_shed_reason", lambda self, pending: None)
    monkeypatch.setattr(DegradationPolicy, "note_overload", lambda self, now: None)
    unbounded = [
        OverloadCellResult(**r) for r in document["results"]
        if r["mode"] == "unbounded"
    ]
    null = run_suite(
        dataclasses.replace(CAMPAIGN, modes=("shed",)),
        [r.seed for r in unbounded], DURATION, jobs=2,
    )
    assert all(r.replica_reads_shed == 0 == r.degradation_steps_down for r in null)
    (verdict,) = judge_claims(CAMPAIGN.claims, null + unbounded)
    assert not verdict.passed and verdict.wins == 0


def test_suite_runs_both_modes_seed_major():
    results = run_suite(CAMPAIGN, [11], duration=4.0)
    assert [(r.seed, r.mode) for r in results] == [
        (11, "shed"), (11, "unbounded")
    ]
