"""Shared benchmark fixtures.

Two artifact channels per bench session:

* ``results.txt`` — the human-readable tables every bench prints, stamped
  with the bench environment (usable cores) so numbers stay comparable
  across machines;
* ``BENCH_<name>.json`` — one flat metric-name → value JSON per bench
  module (``test_bench_kernel.py`` → ``BENCH_kernel.json``), written at
  session end and uploaded by CI so the perf trajectory is machine-
  trackable instead of living only in a text table.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.experiments.runner import available_cpus

RESULTS_FILE = Path(__file__).parent / "results.txt"
SEEDED_RESULTS = Path(__file__).parent / "seeded_results.json"

#: Session accumulator for the JSON artifacts: bench name -> {metric: value}.
_RECORDS: dict[str, dict[str, float]] = {}


def _bench_name(request: pytest.FixtureRequest) -> str:
    module = request.node.module.__name__.rsplit(".", 1)[-1]
    return module.removeprefix("test_bench_") or module


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    """Start each bench session with an empty, env-stamped transcript."""
    RESULTS_FILE.write_text(
        f"# bench environment: usable_cores={available_cpus()}\n"
    )
    yield


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


@pytest.fixture
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


@pytest.fixture
def record(request):
    """Accumulate one named metric for this module's ``BENCH_<name>.json``.

    Values are coerced to float; recording the same metric twice keeps
    the last value (a re-run within the session supersedes).
    """
    sink = _RECORDS.setdefault(_bench_name(request), {})

    def _record(metric: str, value: float) -> None:
        sink[str(metric)] = float(value)

    return _record


def pytest_sessionfinish(session, exitstatus):
    directory = Path(__file__).parent
    for name, metrics in sorted(_RECORDS.items()):
        path = directory / f"BENCH_{name}.json"
        path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
