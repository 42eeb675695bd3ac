"""Every ``--metrics-out`` artifact leads with the unified meta record, and
the ``repro metrics`` artifact is a ``repro dash`` input."""

from __future__ import annotations

import json

import pytest

from repro import __version__
from repro.experiments import dashboard, figure3, figure4, telemetry
from repro.experiments.runner import available_cpus

#: One cell instead of ``--quick``'s twelve: the meta line is what is tested.
SMALL_GRID = dict(
    deadlines_ms=(200,),
    probabilities=(0.9,),
    lazy_intervals=(2.0,),
    total_requests=40,
)

COMMANDS = {
    "figure3": (figure3.main, []),
    "figure4": (figure4.main, ["--quick"]),
    "metrics": (telemetry.main, ["--quick"]),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_metrics_out_leads_with_run_metadata(command, tmp_path, monkeypatch):
    run_figure4 = figure4.run_figure4
    monkeypatch.setattr(
        figure4, "run_figure4", lambda **kw: run_figure4(**{**kw, **SMALL_GRID})
    )
    main, argv = COMMANDS[command]
    out = tmp_path / f"{command}.jsonl"
    main([*argv, "--metrics-out", str(out)])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    meta = records[0]
    assert meta["event"] == "meta"
    assert meta["experiment"] == command
    assert meta["repro_version"] == __version__
    assert meta["usable_cores"] == available_cpus()
    assert all(r["event"] != "meta" for r in records[1:])


def test_dash_renders_the_metrics_artifact(tmp_path, capsys):
    out = tmp_path / "metrics.jsonl"
    assert telemetry.main(["--quick", "--metrics-out", str(out)]) == 0
    events = [json.loads(line)["event"] for line in out.read_text().splitlines()]
    assert events == ["meta", "timeline", "merged"]
    capsys.readouterr()
    assert dashboard.main([str(out)]) == 0
    text = capsys.readouterr().out
    assert "repro dash — metrics" in text
    assert "ticks x 1s" in text
