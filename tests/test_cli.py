"""Tests for the command-line interface."""

import argparse
import importlib
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main


def test_info_command(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "DSN 2002" in out
    assert "repro.core" in out
    assert "EXPERIMENTS.md" in out


def test_figure3_command_runs(capsys, tmp_path):
    save_path = str(tmp_path / "fig3.json")
    assert main(["figure3", "--save", save_path]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "total_us" in out
    import json

    document = json.loads(Path(save_path).read_text())
    assert document["meta"]["experiment"] == "figure3"
    assert len(document["results"]) == 18  # 9 replica counts x 2 windows


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_all_commands_registered():
    assert set(COMMANDS) == {
        "figure3", "figure4", "ablations", "validation", "chaos", "overload",
        "adaptive", "gray", "metrics", "speedup", "scale", "dash", "info",
    }


def test_module_entrypoint_help():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "figure4" in result.stdout


# ---------------------------------------------------------------------------
# One declaration per flag: every command parses its own argv, strictly
# ---------------------------------------------------------------------------
def _command_main(command):
    return importlib.import_module(COMMANDS[command][0]).main


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unknown_flag_is_a_usage_error_before_anything_runs(command, capsys):
    """``python -m repro.experiments.figure4 --quik`` must not silently run
    the full sweep: every command's own ``main`` exits 2 with a usage
    line, from its parser, before any simulation starts."""
    with pytest.raises(SystemExit) as excinfo:
        _command_main(command)(["--no-such-flag"], prog=f"repro {command}")
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran
    assert f"usage: repro {command}" in captured.err


@pytest.mark.parametrize(
    "command, argv",
    [
        ("figure3", ["--save"]),
        ("figure4", ["--metrics-out"]),
        ("scale", ["--seed", "x"]),
        ("scale", ["--users", "10,ten"]),
        ("speedup", ["--jobs-levels", "1,two"]),
        ("ablations", ["--jobs", "-1"]),
    ],
)
def test_missing_or_malformed_values_are_usage_errors(command, argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        _command_main(command)(argv)
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err


#: ``repro <command>``'s option strings (or positional names) and their
#: defaults, recorded at the commit before cli.py became a dispatch table:
#: the union of that commit's ``cli.py`` subparser and the module's own
#: parser, with the module's (effective) default.  The only flag that
#: became newly reachable through ``repro`` is ``metrics --staleness``.
_CAMPAIGN_FLAGS = {
    "--seed": 0, "--quick": False, "--save": None, "--metrics-out": None,
    "--trace-dir": None,
}
_GATED_FLAGS = {**_CAMPAIGN_FLAGS, "--check": False, "--jobs": 1}
FLAG_SURFACE = {
    "figure3": {"--save": None, "--metrics-out": None},
    "figure4": {
        "--quick": False, "--save": None, "--metrics-out": None, "--jobs": 1,
    },
    "ablations": {"--quick": False, "--jobs": 1},
    "validation": {"--quick": False, "--jobs": 1},
    "chaos": {
        **_CAMPAIGN_FLAGS, "--seeds": 10, "--duration": 20.0,
        "--membership-outage": False, "--no-retry": False,
        "--membership-outage-weight": None, "--overload-window": None,
        "--load-storm-weight": None,
    },
    "overload": {**_GATED_FLAGS, "--seeds": 16, "--duration": 12.0},
    "adaptive": {**_GATED_FLAGS, "--seeds": 40, "--duration": 12.0},
    "gray": {**_GATED_FLAGS, "--seeds": 40, "--duration": 14.0},
    "metrics": {
        "--deadline-ms": 200, "--pc": 0.9, "--lui": 2.0, "--requests": 400,
        "--seed": 0, "--staleness": 2, "--quick": False, "--watch": None,
        "--metrics-out": None, "--prometheus": None,
        "--check": False,
    },
    "dash": {
        "input": None, "--select": [], "--objective": 0.9,
        "--staleness-bound": None, "--width": 60, "--top": 16,
        "--watch": None, "--iterations": None, "--html": None,
    },
    "speedup": {
        "--jobs-levels": [1, 2, 4], "--out": None, "--check": False,
        "--min-speedup": 1.2, "--check-jobs": 2,
    },
    "scale": {
        "--validate": False, "--smoke": False, "--quick": False,
        "--check": False, "--users": [10_000, 100_000, 1_000_000, 5_000_000],
        "--seed": 0, "--save": None, "--metrics-out": None, "--jobs": 1,
    },
    "info": {},
}


class _ParserCaptured(Exception):
    pass


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_flag_surface_is_pinned(command, monkeypatch):
    captured = []

    def capture(self, args=None, namespace=None):
        captured.append(self)
        raise _ParserCaptured

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_ParserCaptured):
        _command_main(command)([], prog=f"repro {command}")
    (parser,) = captured
    assert parser.prog == f"repro {command}"

    repo_root = Path(__file__).resolve().parents[1]
    surface = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        default = action.default
        if isinstance(default, Path):
            default = default.relative_to(repo_root).as_posix()
        surface["/".join(action.option_strings) or action.dest] = default
    assert surface == FLAG_SURFACE[command]
