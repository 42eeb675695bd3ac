"""Full-stack overload campaigns: seeded storms through the shed and
unbounded configurations, the invariant audit, and the CLI plumbing."""

import json

import pytest

from repro.experiments import overload
from repro.experiments.campaign import (
    effective_latency,
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


#: See tests/integration/test_golden_streams.py for when (and how) to
#: re-record.  Re-recorded by PR 15, which was meant to move them: the
#: predictor's cache is keyed on ``(ts.version, tq.version)`` alone and looked
#: up once per evaluation, so the ``predictor_cache_*`` series count
#: differently; nothing else in either cell moved.
#: Re-recorded when a read came to evaluate only the candidates Algorithm 1
#: visits, so the ``predictor_*`` series count fewer evaluations; the
#: ``GOLDEN_WORK_FREE`` digests, recorded at the commit before, hold.
GOLDEN = {
    "shed": "4055e8fc434f2e40c35e63d38970c0d66f43d231e5bfa174cd1e9769b84f153a",
    "unbounded": "11fc6b5b985295e62dac98eef044e2ea28c26683cc5543d1797d0589c8d8b0d3",
}


#: The same cells without the work series (``tests/conftest.py``).
GOLDEN_WORK_FREE = {
    "shed": "371299588557b1d59c3979ecc8666407cfd2d427832ba8da4f28c5e464fcc40b",
    "unbounded": "45248aec24c5b2728043bfec1e5b52eb1a7b519669539da745b3b9ddcd2b8393",
}


def test_short_pair_cells_are_pinned(short_pair, cell_digest, work_series):
    for cell in short_pair:
        assert cell_digest(cell) == GOLDEN[cell.mode], (
            f"{cell.mode}: the seeded cell moved (got {cell_digest(cell)})"
        )
        work_free = cell_digest(cell, work_series)
        assert work_free == GOLDEN_WORK_FREE[cell.mode], (
            f"{cell.mode}: more than work moved (got {work_free})"
        )


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
    shed, unbounded = short_pair
    assert suite_violations(CAMPAIGN, [shed, unbounded]) == []
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
    assert flagged[0].startswith("p99:")


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
    pooled = [r for r in records if r["event"] == "pooled"]
    assert {c["mode"] for c in cells} == {"shed", "unbounded"}
    assert {p["mode"] for p in pooled} == {"shed", "unbounded"}
    by_mode = {p["mode"]: p["vip_p99"] for p in pooled}
    assert by_mode["shed"] < by_mode["unbounded"]


def test_main_runs_checks_and_saves(tmp_path, capsys):
    save = tmp_path / "overload.json"
    metrics_out = tmp_path / "overload-metrics.jsonl"
    code = overload.main(
        [
            "--seeds", "1", "--duration", "5", "--check",
            "--save", str(save), "--metrics-out", str(metrics_out),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "overload campaign" in out
    assert metrics_out.exists()
    from repro.experiments.report import load_results

    document = load_results(str(save))
    assert document["meta"]["experiment"] == "overload"
    assert document["meta"]["violations"] == []
    assert len(document["results"]) == 2  # one seed x two modes


def test_suite_runs_both_modes_seed_major():
    results = run_suite(CAMPAIGN, [11], duration=4.0)
    assert [(r.seed, r.mode) for r in results] == [
        (11, "shed"), (11, "unbounded")
    ]
