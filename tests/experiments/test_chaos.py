"""Full-stack chaos campaigns: determinism, clean soaks, and the
invariant checkers' ability to actually catch violations."""

import pytest

from repro.core.requests import ReadOutcome, UpdateOutcome
from repro.experiments import chaos
from repro.experiments.campaign import run_suite, summarize
from repro.experiments.chaos import CAMPAIGN, CampaignResult, run_campaign
from repro.sim.tracing import Trace


@pytest.fixture(scope="module")
def short_campaign():
    return run_campaign(seed=101, duration=6.0)


def test_short_campaign_is_clean(short_campaign):
    result = short_campaign
    assert result.clean, result.violations
    assert result.faults_injected > 0
    assert result.reads_resolved > 0
    assert result.updates_acked > 0
    assert result.events


def test_campaign_reports_recovery_counters(short_campaign):
    recovery = short_campaign.recovery
    for key in (
        "retries_sent",
        "hedges_sent",
        "failover_redispatches",
        "retry_resolved",
        "hedge_resolved",
        "reads_salvaged",
        "state_transfers_started",
        "state_transfers_completed",
        "state_transfers_served",
    ):
        assert key in recovery
        assert recovery[key] >= 0


def test_same_seed_campaign_is_deterministic():
    first = run_campaign(seed=77, duration=5.0)
    second = run_campaign(seed=77, duration=5.0)
    assert first.events == second.events
    assert first.reads_resolved == second.reads_resolved
    assert first.timing_failures == second.timing_failures
    assert first.updates_acked == second.updates_acked
    assert first.recovery == second.recovery
    assert first.violations == second.violations


def test_same_seed_campaign_replays_its_trace_in_one_process():
    """The trace a soak dumps for a seed is the one its ``--seed`` replay
    prints, whatever ran before it in the process: each fabric numbers its
    own messages and requests."""

    def replay():
        trace = Trace(enabled=True)
        run_campaign(seed=5, duration=3.0, trace=trace)
        return trace.to_jsonl()

    first, second = replay(), replay()
    assert '"msg_id": 1}' in first
    assert '"span": "req-1"' in first
    assert first == second


def test_membership_outage_campaign_is_clean():
    result = run_campaign(seed=5, duration=6.0, membership_outage=True)
    assert result.clean, result.violations


# ---------------------------------------------------------------------------
# The checkers catch real violations (they are not vacuous)
# ---------------------------------------------------------------------------
def make_update(request_id, gsn):
    return UpdateOutcome(
        request_id=request_id,
        value=None,
        response_time=0.01,
        first_replica="svc-p1",
        gsn=gsn,
    )


def test_checker_flags_unsequenced_and_duplicate_acks():
    from repro.core.service import build_testbed

    testbed = build_testbed()
    updates = [make_update(1, 0), make_update(2, 3), make_update(3, 3)]
    violations = chaos._check_invariants(testbed, [], updates, [], testbed.trace)
    assert any("acked without a GSN" in v for v in violations)
    assert any("acked for both" in v for v in violations)
    # ...and the acked GSN outruns every (still-empty) primary.
    assert any("lost acked updates" in v for v in violations)


def test_checker_flags_diverged_history():
    from repro.core.service import build_testbed

    testbed = build_testbed()
    # Two primaries claim the same commit slot with different operations.
    for handler, op in ((testbed.service.primaries[1], "rogue"),
                        (testbed.service.primaries[2], "other")):
        handler.app.history.append((op, (), 1))
        handler.my_csn = 1
    violations = chaos._check_invariants(testbed, [], [], [], testbed.trace)
    assert any("history diverges" in v for v in violations)


def stamped_read(stamp_at, stamp_gsn):
    """A read answered at t = 1.5 s with GSN 2, stamped 3 at t = 1.0 s and
    ``stamp_gsn`` at ``stamp_at``; returns the staleness violations."""
    from repro.core.service import build_testbed

    testbed = build_testbed()
    trace = Trace(enabled=True)
    trace.emit(1.0, "sequencer.stamp", "svc-seq", request_id=5, gsn=3)
    trace.emit(stamp_at, "sequencer.stamp", "svc-p1", request_id=5, gsn=stamp_gsn)
    trace.emit(1.5, "client.reply", "reader", request_id=5, replica="svc-s1")
    read = ReadOutcome(
        request_id=5,
        value=2,
        response_time=0.5,
        timing_failure=False,
        replicas_selected=1,
        first_replica="svc-s1",
        deferred=False,
        gsn=2,
    )
    violations = chaos._check_invariants(testbed, [read], [], [], trace)
    return [v for v in violations if v.startswith("staleness:")]


def test_checker_ignores_a_stamp_issued_after_the_reply():
    # A failover re-stamp at t = 2.0 s came after the answer: not judged.
    assert stamped_read(stamp_at=2.0, stamp_gsn=20) == []


def test_checker_flags_a_stamp_issued_before_the_reply():
    assert stamped_read(stamp_at=1.2, stamp_gsn=20) == [
        "staleness: read 5 served 18 versions stale (threshold 10)"
    ]


def test_checker_flags_unresolved_probe():
    from repro.core.service import build_testbed

    testbed = build_testbed()
    probe = ReadOutcome(
        request_id=9,
        value=None,
        response_time=None,
        timing_failure=True,
        replicas_selected=0,
        first_replica=None,
        deferred=False,
        gsn=-1,
    )
    violations = chaos._check_invariants(testbed, [], [], [probe], testbed.trace)
    assert any(v.startswith("liveness:") for v in violations)


# ---------------------------------------------------------------------------
# Soak harness + CLI plumbing
# ---------------------------------------------------------------------------
def test_suite_dumps_trace_artifact_on_violation(tmp_path, monkeypatch):
    monkeypatch.setattr(
        chaos, "_check_invariants", lambda *args: ["synthetic: planted"]
    )
    results = run_suite(CAMPAIGN, [42], duration=3.0, trace_dir=tmp_path)
    assert not results[0].clean
    artifact = tmp_path / "chaos-seed42.trace"
    assert artifact.exists()
    content = artifact.read_text()
    assert "VIOLATION synthetic: planted" in content
    assert "EVENT" in content
    assert "chaos.start" in content


def test_suite_writes_nothing_when_clean(tmp_path):
    results = run_suite(CAMPAIGN, [101], duration=3.0, trace_dir=tmp_path)
    assert results[0].clean, results[0].violations
    assert not list(tmp_path.iterdir())


def test_a_library_call_of_a_suite_writes_nothing_to_stderr(capsys):
    """Progress lines are the CLI's: ``run_suite`` prints them only when
    asked (``repro chaos`` asks)."""
    run_suite(CAMPAIGN, [101], duration=1.0)
    assert capsys.readouterr().err == ""
    run_suite(CAMPAIGN, [101], duration=1.0, progress=True)
    assert "[chaos] 1/1 cells" in capsys.readouterr().err


def test_summarize_renders_counters():
    result = CampaignResult(
        seed=1,
        duration=5.0,
        violations=[],
        faults_injected=4,
        faults_skipped=1,
        reads_issued=50,
        reads_resolved=50,
        timing_failures=2,
        updates_acked=20,
        recovery={"retries_sent": 3, "state_transfers_completed": 1},
    )
    text = summarize(CAMPAIGN, [result])
    assert "chaos soak" in text
    assert "CLEAN" in text
    assert "retries_sent" in text


def test_main_runs_and_saves(tmp_path, capsys):
    save = tmp_path / "chaos.json"
    code = chaos.main(
        ["--seeds", "1", "--duration", "4", "--save", str(save)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "chaos soak" in out
    assert "fault recovery" in out
    import json

    document = json.loads(save.read_text())
    assert document["meta"]["experiment"] == "chaos"
    assert len(document["results"]) == 1
