"""Tests for the parallel experiment runner (ISSUE 2 tentpole).

The load-bearing property is *serial equivalence*: any sweep must produce
identical results for any ``jobs`` value, because cells are independent
simulations whose seeds are data carried in the spec, not a function of
execution order.
"""

from __future__ import annotations

import argparse
import io
import multiprocessing
import os

import pytest

from repro.experiments.figure4 import run_figure4
from repro.experiments.runner import (
    CellError,
    CellSpec,
    SweepProgress,
    add_jobs_argument,
    available_cpus,
    resolve_jobs,
    run_cells,
)
from repro.sim.rng import RngRegistry, seed_for


# Workers must be module-level so specs pickle across process boundaries.
def _square(x):
    return x * x


def _seeded_stream_head(seed, name):
    return RngRegistry(seed).stream(name).random()


def _boom(x):
    raise RuntimeError(f"cell {x} exploded")


def _die(x):
    os._exit(13)  # simulate a segfault/OOM-kill: no exception, no cleanup


def _concat(a, b):
    return f"{a}|{b}"


# ---------------------------------------------------------------------------
# CellSpec / run_cells basics
# ---------------------------------------------------------------------------
def test_cellspec_runs_function_with_kwargs():
    spec = CellSpec(key="k", fn=_square, kwargs={"x": 7})
    assert spec.run() == 49


def test_run_cells_serial_preserves_order():
    specs = [CellSpec(key=i, fn=_square, kwargs={"x": i}) for i in range(10)]
    assert run_cells(specs, jobs=1) == [i * i for i in range(10)]


def test_run_cells_parallel_preserves_order():
    specs = [CellSpec(key=i, fn=_square, kwargs={"x": i}) for i in range(10)]
    assert run_cells(specs, jobs=3) == [i * i for i in range(10)]


def test_run_cells_parallel_matches_serial_with_seeded_cells():
    specs = [
        CellSpec(key=i, fn=_seeded_stream_head,
                 kwargs={"seed": seed_for(0, i), "name": "s"})
        for i in range(8)
    ]
    assert run_cells(specs, jobs=1) == run_cells(specs, jobs=4)


def test_run_cells_empty():
    assert run_cells([], jobs=4) == []


def test_run_cells_serial_exception_propagates():
    specs = [CellSpec(key=0, fn=_boom, kwargs={"x": 0})]
    with pytest.raises(RuntimeError, match="cell 0 exploded"):
        run_cells(specs, jobs=1)


def test_run_cells_parallel_exception_propagates():
    specs = [CellSpec(key=i, fn=_boom, kwargs={"x": i}) for i in range(3)]
    with pytest.raises(RuntimeError, match="exploded"):
        run_cells(specs, jobs=2)


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(5) == 5
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    assert resolve_jobs(-3) >= 1


def test_available_cpus_prefers_process_cpu_count(monkeypatch):
    """``os.process_cpu_count`` (3.13+) is cgroup/affinity-aware; when it
    exists it must win over ``os.cpu_count``."""
    monkeypatch.setattr(os, "process_cpu_count", lambda: 3, raising=False)
    assert available_cpus() == 3
    assert resolve_jobs(0) == 3
    assert resolve_jobs(None) == 3


def test_available_cpus_falls_back_to_affinity(monkeypatch):
    monkeypatch.setattr(os, "process_cpu_count", None, raising=False)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert available_cpus() == 2
    else:  # pragma: no cover - non-Linux
        assert available_cpus() >= 1


# ---------------------------------------------------------------------------
# Shared common config
# ---------------------------------------------------------------------------
def test_common_kwargs_merge_with_spec_precedence():
    specs = [
        CellSpec(key=0, fn=_concat, kwargs={"b": "spec"}),
        CellSpec(key=1, fn=_concat, kwargs={}),
    ]
    common = {"a": "shared", "b": "common"}
    expected = ["shared|spec", "shared|common"]
    assert run_cells(specs, jobs=1, common=common) == expected
    assert run_cells(specs, jobs=2, common=common) == expected


# ---------------------------------------------------------------------------
# Worker-crash handling
# ---------------------------------------------------------------------------
def test_cell_error_carries_key_and_remote_traceback():
    specs = [
        CellSpec(key=0, fn=_square, kwargs={"x": 2}),
        CellSpec(key="bad-cell", fn=_boom, kwargs={"x": 42}),
    ]
    with pytest.raises(CellError) as excinfo:
        run_cells(specs, jobs=2)
    message = str(excinfo.value)
    assert excinfo.value.key == "bad-cell"
    assert "RuntimeError: cell 42 exploded" in message  # the original traceback
    assert "_boom" in message  # down to the raising frame


def test_no_worker_outlives_run_cells_on_success_or_cell_error():
    """The pool lives exactly as long as the call: whether ``run_cells``
    returns or raises, no child process is left behind and an immediate
    second sweep on the same specs succeeds."""
    good = [CellSpec(key=i, fn=_square, kwargs={"x": i}) for i in range(6)]
    bad = good[:3] + [CellSpec(key="bad", fn=_boom, kwargs={"x": 0})] + good[3:]
    squares = [i * i for i in range(6)]
    assert run_cells(good, jobs=2) == squares
    assert multiprocessing.active_children() == []
    with pytest.raises(CellError):
        run_cells(bad, jobs=2)
    assert multiprocessing.active_children() == []
    assert run_cells(good, jobs=2) == squares


def test_dead_worker_raises_instead_of_hanging():
    """A worker that dies without raising (os._exit) must surface as an
    error promptly, and the next sweep must still work."""
    specs = [CellSpec(key=i, fn=_die, kwargs={"x": i}) for i in range(2)]
    with pytest.raises(RuntimeError, match="died abruptly"):
        run_cells(specs, jobs=2)
    healthy = [CellSpec(key=i, fn=_square, kwargs={"x": i}) for i in range(4)]
    assert run_cells(healthy, jobs=2) == [i * i for i in range(4)]


# ---------------------------------------------------------------------------
# --jobs flag parsing
# ---------------------------------------------------------------------------
def _parse_jobs(argv):
    """What a sweep's ``main`` sees: ``--jobs`` next to another flag."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    add_jobs_argument(parser)
    return parser.parse_args(argv).jobs


def test_add_jobs_argument_forms():
    assert _parse_jobs([]) == 1
    assert _parse_jobs(["--quick"]) == 1
    assert _parse_jobs(["--jobs", "4"]) == 4
    assert _parse_jobs(["--jobs=8", "--quick"]) == 8
    assert _parse_jobs(["--quick", "--jobs", "0"]) == 0
    assert _parse_jobs(["--jobs=0"]) == 0


def test_add_jobs_argument_missing_value():
    with pytest.raises(SystemExit):
        _parse_jobs(["--jobs"])
    with pytest.raises(SystemExit):
        _parse_jobs(["--quick", "--jobs"])


def test_add_jobs_argument_rejects_garbage():
    for argv in (["--jobs", "-1"], ["--jobs=-4"], ["--jobs", "two"], ["--jobs="]):
        with pytest.raises(SystemExit) as excinfo:
            _parse_jobs(argv)
        assert excinfo.value.code == 2, argv


def test_add_jobs_argument_duplicate_flags_last_wins():
    assert _parse_jobs(["--jobs", "2", "--jobs", "6"]) == 6
    assert _parse_jobs(["--jobs=2", "--quick", "--jobs", "3"]) == 3
    assert _parse_jobs(["--jobs", "4", "--jobs=0"]) == 0


# ---------------------------------------------------------------------------
# Progress / ETA reporting
# ---------------------------------------------------------------------------
def test_sweep_progress_writes_eta_line():
    stream = io.StringIO()
    progress = SweepProgress(4, label="demo", enabled=True, stream=stream)
    progress.update()
    progress.update()
    elapsed = progress.finish()
    out = stream.getvalue()
    assert "[demo] 2/4 cells" in out
    assert "eta" in out
    assert elapsed >= 0.0


def test_sweep_progress_disabled_is_silent():
    stream = io.StringIO()
    progress = SweepProgress(4, enabled=False, stream=stream)
    progress.update()
    progress.finish()
    assert stream.getvalue() == ""


# ---------------------------------------------------------------------------
# Deterministic seed derivation
# ---------------------------------------------------------------------------
def test_seed_for_is_deterministic_and_key_sensitive():
    assert seed_for(0, "a", 1) == seed_for(0, "a", 1)
    assert seed_for(0, "a", 1) != seed_for(0, "a", 2)
    assert seed_for(0, "a", 1) != seed_for(1, "a", 1)
    assert seed_for(0, 0.9, 2.0, 100) != seed_for(0, 0.5, 2.0, 100)


def test_seed_for_independent_of_evaluation_order():
    keys = [(p, lui, d) for p in (0.9, 0.5) for lui in (2.0,) for d in (100, 160)]
    forward = [seed_for(7, *key) for key in keys]
    backward = [seed_for(7, *key) for key in reversed(keys)]
    assert forward == list(reversed(backward))


# ---------------------------------------------------------------------------
# Figure 4 end-to-end: jobs=1 and jobs=4 are identical (ISSUE 2 property;
# the telemetry-bearing variant lives in test_metrics_merge.py)
# ---------------------------------------------------------------------------
def test_run_figure4_parallel_identical_to_serial():
    kwargs = dict(
        deadlines_ms=(100, 160),
        probabilities=(0.9, 0.5),
        lazy_intervals=(2.0,),
        total_requests=25,
        seed=3,
    )
    serial = run_figure4(jobs=1, **kwargs)
    parallel = run_figure4(jobs=4, **kwargs)
    assert serial.cells.keys() == parallel.cells.keys()
    for key, cell in serial.cells.items():
        assert parallel.cells[key] == cell, f"cell {key} diverged across jobs"
