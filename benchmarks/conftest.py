"""Shared benchmark fixtures.

The benches under this directory regenerate the paper's tables and check
seeded results; host timings are not theirs to track — those belong to the
perf ledger (``benchmarks/ledger/``, ``BENCHMARK.json``).  Two fixtures:

* ``report`` — prints a bench's table and appends it to ``results.txt``,
  the generated transcript of the latest bench session;
* ``pin`` — asserts a seeded result equal to its committed value in
  ``seeded_results.json``.

The "feature off means free" budgets and the kernel-event cost they are
measured against live in ``test_bench_guards.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

RESULTS_FILE = Path(__file__).parent / "results.txt"
SEEDED_RESULTS = Path(__file__).parent / "seeded_results.json"


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    """Start each bench session with an empty transcript."""
    RESULTS_FILE.write_text("")


@pytest.fixture
def report(capfd):
    """Print a result table past pytest's fd-level capture.

    Tables are also appended to ``benchmarks/results.txt`` so a
    ``--benchmark-only`` run leaves a machine-readable transcript even
    when the console output is discarded.
    """

    def _report(text: str) -> None:
        with capfd.disabled():
            print(text, flush=True)
        with RESULTS_FILE.open("a") as sink:
            sink.write(text + "\n")

    return _report


@pytest.fixture(scope="session")
def pin():
    """Assert a seeded result equals its committed value.

    A seeded run repeats exactly, so its outcome is pinned, not tracked:
    ints compare ``==``, floats to ``rel_tol=1e-9``, and a key missing from
    ``seeded_results.json`` fails.  Refreshing a pin is editing the file to
    the number the failure prints, in the change that moved it.
    """
    pins = json.loads(SEEDED_RESULTS.read_text())

    def _pin(key: str, measured: float) -> None:
        assert key in pins, (
            f"{key} = {measured!r} has no entry in {SEEDED_RESULTS.name}"
        )
        pinned = pins[key]
        if isinstance(pinned, int):
            same = measured == pinned
        else:
            same = math.isclose(measured, pinned, rel_tol=1e-9)
        assert same, (
            f"{key}: measured {measured!r}, pinned {pinned!r} "
            f"in benchmarks/{SEEDED_RESULTS.name}"
        )

    return _pin
