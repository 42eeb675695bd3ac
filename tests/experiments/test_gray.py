"""Gray-failure campaign harness: cells, acceptance checks, CLI plumbing,
and the two reproducibility properties the PR guarantees — detector-off
runs are bit-identical, and the suite is identical at any ``--jobs``."""

import json

import pytest

from repro.core.qos import QoSSpec
from repro.core.service import ServiceConfig, build_testbed
from repro.experiments import gray
from repro.experiments.campaign import (
    run_suite,
    suite_violations,
    summarize,
    write_metrics_artifact,
)
from repro.experiments.gray import CAMPAIGN, DETECTOR_CONFIG, run_gray_cell
from repro.net.latency import LanLatency
from repro.sim.process import Process, Timeout
from repro.sim.rng import Constant


@pytest.fixture(scope="module")
def short_pair():
    """One seed through both modes; shared across the module for speed."""
    detector = run_gray_cell(seed=303, mode="detector", duration=6.0)
    baseline = run_gray_cell(seed=303, mode="baseline", duration=6.0)
    return detector, baseline


#: See tests/integration/test_golden_streams.py for when (and how) to
#: re-record.  Re-recorded by PR 15, which was meant to move them: the
#: predictor's CDFs are exact counts, cached on ``(ts.version, tq.version)``
#: alone.  ``detector`` moved through the ``predictor_cache_*`` series only;
#: in ``baseline`` the exact values also resolve selection ties the old
#: rounding noise used to decide (839 -> 835 replicas selected, 36 fewer
#: messages), which is the intended effect.
#: Re-recorded when a read came to evaluate only the candidates Algorithm 1
#: visits, so the ``predictor_*`` series count fewer evaluations; the
#: ``GOLDEN_WORK_FREE`` digests, recorded at the commit before, hold.
GOLDEN = {
    "detector": "5afebf8417b097ec789c7cb59e4f1d7f2b22fda7590e44b0ccae1420a91b8658",
    "baseline": "9908d67f7a2340f7ce99367aa91d2641040adbbeedec8a5aca7383ebe27db7bc",
}


#: The same cells without the work series (``tests/conftest.py``).
GOLDEN_WORK_FREE = {
    "detector": "daa780cf546f0ad3076f19ff25dda2490a4d6a2cea520722132a255335a61574",
    "baseline": "737098c4c7ea29cfaab0c195f277bfdc5cf90c60a425cca78f29386d54873204",
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
    assert events.count("pooled") == 2
    pooled = [r for r in records if r["event"] == "pooled"]
    assert {r["mode"] for r in pooled} == {"detector", "baseline"}
    for record in pooled:
        assert record["samples"] > 0
    # Detector cells carry their ground-truth detection score.
    cells = {r["mode"]: r for r in records if r["event"] == "cell"}
    assert cells["detector"]["detection"] is not None
    assert cells["baseline"]["detection"] is None


def test_main_quick_check_passes(tmp_path, capsys):
    out = tmp_path / "gray.jsonl"
    code = gray.main(
        ["--quick", "--check", "--jobs", "2", "--metrics-out", str(out)]
    )
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "pooled:" in captured.out


# ---------------------------------------------------------------------------
# Bit-identical when disabled
# ---------------------------------------------------------------------------
def run_calm_cell(detector_config):
    """A fault-free service run; returns the full trace for comparison."""
    from repro.sim.tracing import Trace

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


def test_detector_is_bit_identical_on_a_calm_network():
    """With no faults the detector must be a pure observer: same replies
    from the same replicas at the same instants as a detector-free run."""
    assert run_calm_cell(None) == run_calm_cell(DETECTOR_CONFIG)
