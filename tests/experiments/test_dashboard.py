"""The ``repro dash`` renderer: sparklines, selection, HTML export, CLI."""

from __future__ import annotations

import json

import pytest

from repro.experiments.dashboard import (
    default_slos,
    export_html,
    load_artifact,
    main,
    render_controller,
    render_dashboard,
    render_timeline,
    select_timeline,
    sparkline,
)
from repro.experiments.report import write_experiment_artifact
from repro.obs.slo import SloEngine
from repro.obs.timeseries import Timeline


def _timeline(length=8):
    return Timeline(
        1.0,
        start=0,
        length=length,
        series={
            'client_reads_judged{client="a"}': {
                "type": "counter",
                "deltas": [10] * length,
            },
            'client_timing_failures{client="a"}': {
                "type": "counter",
                "deltas": [2] + [0] * (length - 1),
            },
            "queue_depth": {
                "type": "gauge",
                "values": [float(i) for i in range(length)],
            },
            "wait_seconds": {
                "type": "histogram",
                "boundaries": [0.1, 1.0],
                "counts": [[1, 1, 0]] * length,
                "sums": [0.6] * length,
                "totals": [2] * length,
            },
        },
    )


def test_sparkline_shapes():
    assert sparkline([]) == ""
    flat = sparkline([0.0, 0.0, 0.0])
    assert len(flat) == 3 and len(set(flat)) == 1
    line = sparkline([0.0, 1.0, 2.0, 4.0])
    assert len(line) == 4
    assert line[0] != line[-1]  # normalized to the max
    # Longer series bucket down to the requested width.
    assert len(sparkline(list(range(1000)), width=40)) == 40


def test_render_timeline_lists_active_series():
    text = render_timeline(_timeline())
    assert "8 ticks x 1s" in text
    assert 'client_reads_judged{client="a"}' in text
    assert "wait_seconds p95" in text
    assert render_timeline(Timeline(1.0)) == "(empty timeline)"


def test_default_slos_cover_judged_clients():
    specs = default_slos(_timeline(), objective=0.9)
    assert any(s.client == "a" and s.kind == "timeliness" for s in specs)
    with_stale = default_slos(
        _timeline(), objective=0.9, staleness_bound=0.5
    )
    assert len(with_stale) >= len(specs)


def test_render_dashboard_includes_slo_table():
    timeline = _timeline()
    specs = default_slos(timeline, objective=0.9)
    reports = SloEngine(specs).evaluate(timeline)
    text = render_dashboard(timeline, reports)
    assert "compliance" in text
    assert "timeliness" in text


def test_export_html_is_self_contained(tmp_path):
    timeline = _timeline()
    specs = default_slos(timeline, objective=0.9)
    reports = SloEngine(specs).evaluate(timeline)
    out = export_html(tmp_path / "dash.html", timeline, reports)
    html = out.read_text()
    assert html.startswith("<!doctype html>")
    assert "<svg" in html
    assert "src=" not in html  # no external assets


@pytest.fixture()
def artifact(tmp_path):
    path = tmp_path / "metrics.jsonl"
    records = [
        {
            "event": "timeline",
            "kind": "cell",
            "mode": "shed",
            "timeline": _timeline(4).to_dict(),
        },
        {
            "event": "timeline",
            "kind": "merged",
            "timeline": _timeline(8).to_dict(),
        },
    ]
    write_experiment_artifact(path, "dashtest", records, seed=1)
    return path


def test_load_and_select_prefers_merged(artifact):
    meta, records, controllers = load_artifact(artifact)
    assert meta["experiment"] == "dashtest"
    assert len(records) == 2
    assert controllers == []
    assert select_timeline(records).length == 8
    assert select_timeline(records, {"kind": "cell"}).length == 4
    assert select_timeline(records, {"mode": "missing"}) is None


def test_cli_renders_and_exports_html(artifact, tmp_path, capsys):
    html = tmp_path / "dash.html"
    code = main([str(artifact), "--html", str(html)])
    assert code == 0
    out = capsys.readouterr().out
    assert "repro dash" in out and "dashtest" in out
    assert html.exists()


def test_cli_watch_stops_after_iterations(artifact, capsys):
    code = main([str(artifact), "--watch", "0.01", "--iterations", "2"])
    assert code == 0
    assert capsys.readouterr().out.count("dashtest") >= 2


def test_cli_reports_missing_timeline(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text(json.dumps({"event": "meta", "experiment": "x"}) + "\n")
    assert main([str(path)]) == 1
    assert "no timeline" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# Closed-loop controller panel
# ---------------------------------------------------------------------------
def _controller_record(mode="controller", seed=7):
    def d(epoch, state, index, t_l, actions=()):
        return {
            "epoch": epoch,
            "time": epoch * 0.5,
            "state": state,
            "relax_index": index,
            "t_l": t_l,
            "actions": list(actions),
        }

    return {
        "event": "controller",
        "mode": mode,
        "seed": seed,
        "decisions": [
            d(1, "conservative", 0, 0.3),
            d(2, "measure", 0, 0.3),
            d(3, "relax", 1, 0.6, ["relax:0->1"]),
            d(4, "rollback", 0, 0.3, ["rollback:1->0"]),
            d(5, "measure", 0, 0.3),
        ],
    }


def test_render_controller_panel():
    text = render_controller([_controller_record()])
    assert "closed-loop controller" in text
    assert "mode=controller seed=7" in text
    assert "5 epochs, 1 relaxes, 1 rollbacks" in text
    assert "index" in text and "T_L" in text and "state" in text
    assert "rollback:1->0" in text
    # Empty/decision-free inputs render nothing rather than a bare title.
    assert render_controller([]) == ""
    assert render_controller([{"event": "controller", "decisions": []}]) == ""


def test_load_artifact_splits_records_by_event(tmp_path):
    path = tmp_path / "metrics.jsonl"
    record = _controller_record()
    timeline = {"event": "timeline", "kind": "merged",
                "timeline": _timeline(4).to_dict()}
    write_experiment_artifact(
        path,
        "adaptive",
        [record, {"event": "cell", "mode": "static-0"}, timeline],
        seed=1,
    )
    meta, timelines, loaded = load_artifact(path)
    assert meta["experiment"] == "adaptive"
    assert timelines == [timeline]
    assert len(loaded) == 1
    assert loaded[0]["mode"] == "controller"
    assert len(loaded[0]["decisions"]) == 5


def test_export_html_includes_controller_section(tmp_path):
    timeline = _timeline()
    specs = default_slos(timeline, objective=0.9)
    reports = SloEngine(specs).evaluate(timeline)
    out = export_html(
        tmp_path / "dash.html",
        timeline,
        reports,
        controllers=[_controller_record()],
    )
    html = out.read_text()
    assert "Closed-loop controller" in html
    assert "mode=<code>controller</code>" in html
    assert "1 rollbacks" in html
