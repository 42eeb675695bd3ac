#!/usr/bin/env python3
"""Re-record every pin in ``benchmarks/pins.json`` and print what moved.

    python3 benchmarks/repin.py [PATH ...] [--workloads NAME ...]
    python3 benchmarks/repin.py --check-ledger

The first form runs pytest over ``tests/`` and ``benchmarks/`` (or the
PATHs given) with the pins recorded instead of asserted, keeping each module
that checks a pin and each test marked ``smoke_seeds``; then it runs the
traced ledger run of every workload in the ``ledger`` section (or of those
named).  It writes the file and prints one line per value that changed,
``section key: old -> new`` (``+``/``-`` for a pin added or dropped), so a
tree whose pins hold prints nothing.  A pin drops only when a default run
passed and recorded no value for it.

A test that fails is listed on stderr and the exit status is 1; the values
recorded before the failure are still written.  A failing ``smoke_seeds``
test means a smoke seed stopped agreeing: its seeds are inputs, so this
command reports it and never picks another.

``--check-ledger`` is CI's ledger gate: it runs the ledger workloads and
exits 1 unless each run is correct and meets its pins (``pins.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pins  # noqa: E402

DEFAULT_PATHS = ("tests", "benchmarks")


def run_ledger(workload: str) -> dict:
    """The closing JSON object of one traced ledger run of ``workload``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "ledger" / "run.py"), "--workload", workload,
         *pins.LEDGER_ARGS],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"repin: the {workload} ledger run printed no result\n{proc.stderr}")
    return json.loads(lines[-1])


def check_ledger(workloads) -> int:
    table = pins.load()["ledger"]
    failed = False
    for workload in workloads or sorted(table):
        problems = pins.ledger_problems(table[workload], run_ledger(workload))
        print(f"{workload}: {'; '.join(problems) or 'ok'}")
        failed = failed or bool(problems)
    return 1 if failed else 0


def record_tests(paths) -> tuple[dict, list[str]]:
    """``{section: {key: value}}`` as the pinned tests measured them, and
    the pytest summary lines naming each test that failed."""
    with tempfile.TemporaryDirectory() as tmp:
        sink = Path(tmp) / "pins.jsonl"
        env = {
            **os.environ,
            pins.RECORD: str(sink),
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        }
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "pins",
             "-p", "no:cacheprovider", "--benchmark-disable", *paths],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        recorded: dict = {}
        for line in sink.read_text().splitlines() if sink.exists() else ():
            section, key, value = json.loads(line)
            recorded.setdefault(section, {})[key] = value
    failures = [
        line for line in proc.stdout.splitlines()
        if line.startswith(("FAILED", "ERROR"))
    ]
    if proc.returncode and not failures:
        failures = [f"pytest exited {proc.returncode}", proc.stdout[-2000:]]
    return recorded, failures


def record_ledger(workloads, table: dict) -> tuple[dict, list[str]]:
    recorded, failures = {}, []
    for workload in workloads:
        result = run_ledger(workload)
        if result["correct"] is not True:
            failures.append(f"ledger {workload}: the run is not correct")
            continue
        recorded[workload] = {
            name: result["metrics"][name]["value"] for name in table[workload]
        }
    return recorded, failures


def diff_lines(old: dict, new: dict) -> list[str]:
    """One line per pin whose value differs between two pin tables."""
    flat_old, flat_new = _flatten(old), _flatten(new)
    lines = []
    for key in sorted(flat_old.keys() | flat_new.keys()):
        if key not in flat_new:
            lines.append(f"- {key} (was {flat_old[key]!r})")
        elif key not in flat_old:
            lines.append(f"+ {key}: {flat_new[key]!r}")
        elif flat_old[key] != flat_new[key]:
            lines.append(f"{key}: {flat_old[key]!r} -> {flat_new[key]!r}")
    return lines


def _flatten(table: dict) -> dict:
    """``{"section key": value}``; a ledger pin's key is ``workload.metric``."""
    flat = {}
    for section, values in table.items():
        for key, value in values.items():
            if isinstance(value, dict):
                flat.update({f"{section} {key}.{name}": v for name, v in value.items()})
            else:
                flat[f"{section} {key}"] = value
    return flat


def _merged(pinned: dict, measured: dict) -> dict:
    """``measured``, keeping each pinned value it still agrees with."""
    return {
        key: pinned[key] if key in pinned and pins.agrees(pinned[key], value) else value
        for key, value in measured.items()
    }


def repin(paths, workloads) -> int:
    old = pins.load()
    tests, failures = record_tests(paths or DEFAULT_PATHS)
    ledger, ledger_failures = record_ledger(
        workloads or sorted(old["ledger"]), old["ledger"]
    )
    failures += ledger_failures
    measured = {**tests, "ledger": ledger}
    full = not (paths or workloads or failures)  # may drop the pins nothing measured
    new = {section: {} if full else dict(values) for section, values in old.items()}
    for section, values in measured.items():
        section_pins = old.get(section, {})
        if section == "ledger":
            values = {w: _merged(section_pins[w], v) for w, v in values.items()}
        else:
            values = _merged(section_pins, values)
        new.setdefault(section, {}).update(values)
    for line in diff_lines(old, new):
        print(line)
    if new != old:
        pins.save(new)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="pytest paths to re-record (default: tests benchmarks)")
    parser.add_argument("--workloads", nargs="+", metavar="NAME",
                        help="ledger workloads to re-record (default: every pinned one)")
    parser.add_argument("--check-ledger", action="store_true",
                        help="run the ledger workloads and check them against their pins")
    args = parser.parse_args(argv)
    if args.check_ledger:
        return check_ledger(args.workloads)
    return repin(args.paths, args.workloads)


if __name__ == "__main__":
    sys.exit(main())
