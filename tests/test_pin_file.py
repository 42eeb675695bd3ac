"""The one pin path: ``benchmarks/pins.json``, re-recorded by
``benchmarks/repin.py`` and checked by its ``--check-ledger`` gate.

Each test names the mutant it kills.
"""

import importlib.util
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


repin = _load("repin")


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", "out", "results.txt")
    for tree in ("src", "tests", "benchmarks"):
        shutil.copytree(ROOT / tree, dest / tree, ignore=ignore)
    for name in ("BENCHMARK.json", "pyproject.toml"):
        shutil.copy(ROOT / name, dest / name)


def test_repin_restores_a_corrupted_digest_and_ci_count(tmp_path):
    """Kills a re-pin that misses a section, rewrites a pin that held, or
    prints a line for one: on a copy whose ``paper_cell.outcomes`` digest
    and ``paper_cell`` event count were corrupted, ``repin.py`` restores
    both and prints exactly two lines; run again, it prints none."""
    _copy_tree(tmp_path)
    pin_file = tmp_path / "benchmarks" / "pins.json"
    pristine = pin_file.read_text()
    pins = json.loads(pristine)
    pins["golden"]["paper_cell.outcomes"] = "0" * 64
    pins["ledger"]["paper_cell"]["sim.events_per_op"] += 1
    pin_file.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")

    def run():
        return subprocess.run(
            [sys.executable, "benchmarks/repin.py",
             "tests/integration/test_golden_streams.py", "--workloads", "paper_cell"],
            cwd=tmp_path, capture_output=True, text=True,
        )

    first = run()
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert len(lines) == 2, first.stdout
    assert lines[0].startswith("golden paper_cell.outcomes: '0000")
    assert lines[1].startswith("ledger paper_cell.sim.events_per_op: ")
    assert pin_file.read_text() == pristine

    again = run()
    assert again.returncode == 0, again.stderr
    assert again.stdout == ""


def _meeting(pinned):
    """A ledger result that meets every pin of one workload exactly."""
    return {
        "correct": True,
        "metrics": {name: {"value": value} for name, value in pinned.items()},
    }


LEDGER_PINS = json.loads((ROOT / "benchmarks" / "pins.json").read_text())["ledger"]


@pytest.mark.parametrize(
    "workload, name",
    [(w, n) for w, names in sorted(LEDGER_PINS.items()) for n in sorted(names)],
)
def test_ledger_check_fails_a_count_off_by_one(workload, name, monkeypatch, capsys):
    """Kills a ledger gate that compares nothing, or lets a count drift:
    every pinned count, one more than its pin (its ceiling, for an event or
    message count), makes ``repin.py --check-ledger`` exit non-zero, and
    the pins themselves pass."""
    results = {w: _meeting(p) for w, p in LEDGER_PINS.items()}
    monkeypatch.setattr(repin, "run_ledger", lambda w: results[w])
    assert repin.main(["--check-ledger"]) == 0

    pinned = LEDGER_PINS[workload][name]
    off = math.ceil(pinned) + 1 if name in repin.pins.CEILINGS else pinned + 1
    results[workload]["metrics"][name]["value"] = off
    assert repin.main(["--check-ledger"]) == 1
    assert f"{name} = {off!r}" in capsys.readouterr().out


def test_ledger_check_fails_an_incorrect_run(monkeypatch):
    """Kills a ledger gate that reads the counts and not the verdict."""
    results = {w: _meeting(p) for w, p in LEDGER_PINS.items()}
    results["chaos"]["correct"] = False
    monkeypatch.setattr(repin, "run_ledger", lambda w: results[w])
    assert repin.main(["--check-ledger"]) == 1


def test_no_test_file_pins_a_digest_of_its_own():
    """Kills a second pin site: no test module holds a hex digest, and CI
    holds no ledger count; every pin is in ``benchmarks/pins.json``."""
    digest = re.compile(r"\b[0-9a-f]{40,64}\b")
    for tree in ("tests", "benchmarks"):
        for path in (ROOT / tree).rglob("*.py"):
            assert not digest.search(path.read_text()), path
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for name in {n for names in LEDGER_PINS.values() for n in names}:
        assert name not in ci, name
