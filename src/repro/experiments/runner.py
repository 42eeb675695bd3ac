"""Parallel experiment-execution engine: one process pool per sweep.

The paper's evaluation (§6, Figures 3–4) — and every ablation grown on
top of it — is a grid of *independent* simulation cells: one full
simulated run per (deadline, P_c, lazy-update-interval, seed)
combination.  Cells share no state, so the sweep is embarrassingly
parallel; this module is the one place that knows how to fan a list of
cells out across worker processes and collect the results in order.

``run_cells(jobs>1)`` opens one ``ProcessPoolExecutor`` for the call,
submits one future per cell and shuts the pool down before it returns
or raises, so a finished, failed or interrupted sweep leaves no worker
process and no queued cell behind.  Results cross the pipe as whatever
pickle makes of them; against cells of 0.25–10 s each, pool start-up and
the per-cell round-trip cost milliseconds (measured in PR 14, CHANGES.md).

Invariants:

* :class:`CellSpec` is pickle-safe by construction: the cell function is
  a *module-level* callable (pickled by reference) and the kwargs are
  plain data.  Whatever a worker needs is in the spec (or the shared
  ``common`` mapping) — workers never read ambient state.
* Seeds are data, not position: a spec carries the exact seed the serial
  loop would have used, and sweeps that need per-cell streams derive
  them with :func:`repro.sim.rng.seed_for` *before* building specs, so
  results are independent of execution order and process placement.
* ``jobs=1`` bypasses the executor entirely — cells run in-process, in
  list order, making the serial path bit-identical to a hand-written
  ``for`` loop (and to the pre-runner behaviour of every sweep).
* A cell that raises in a worker surfaces as :class:`CellError` carrying
  the cell key and the *original* remote traceback; remaining work is
  cancelled.

Typical use::

    specs = [CellSpec(key, run_figure4_cell, kwargs) for key, kwargs in grid]
    cells = run_cells(specs, jobs=4, progress=True, label="figure4",
                      common=shared_kwargs)
    results = dict(zip([s.key for s in specs], cells))
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional, Sequence, TextIO


@dataclass(frozen=True)
class CellSpec:
    """One independent simulation cell of a sweep.

    ``fn`` must be importable at module level in the worker (pickled by
    reference); ``kwargs`` must be picklable data.  ``key`` identifies
    the cell in result dictionaries, progress output, and error messages
    and is never sent to the function.  Kwargs shared by every cell of a
    sweep belong in ``run_cells(..., common=...)`` instead — per-spec
    kwargs override common ones on collision.
    """

    key: Hashable
    fn: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)

    def run(self, common: Optional[dict] = None) -> Any:
        return self.fn(**{**(common or {}), **self.kwargs})


class CellError(RuntimeError):
    """A cell raised inside a worker process.

    The original traceback is part of the message (workers format it at
    the raise site and ship the string), so the failure reads exactly as
    it would have under ``jobs=1`` — plus the cell key that produced it.
    """

    def __init__(self, key: Hashable, remote_traceback: str) -> None:
        super().__init__(
            f"cell {key!r} failed in worker\n"
            f"--- remote traceback ---\n{remote_traceback}"
        )
        self.key = key
        self.remote_traceback = remote_traceback


class SweepProgress:
    """Single-line progress/ETA reporter for a sweep (stderr, ``\\r``-style).

    ETA is the naive completed-cells extrapolation, which is accurate for
    grids of similar-cost cells (the common case here).  Disabled
    instances are no-ops so library callers can pass ``progress=False``
    without branching.
    """

    def __init__(
        self,
        total: int,
        label: str = "sweep",
        enabled: bool = True,
        stream: Optional[TextIO] = None,
    ) -> None:
        self.total = total
        self.label = label
        self.enabled = enabled and total > 0
        self.stream = stream if stream is not None else sys.stderr
        self.started = time.perf_counter()
        self.done = 0

    def update(self, completed: int = 1) -> None:
        self.done += completed
        if not self.enabled:
            return
        elapsed = time.perf_counter() - self.started
        if self.done > 0 and self.done < self.total:
            eta = elapsed * (self.total - self.done) / self.done
            tail = f"eta {eta:5.1f}s"
        else:
            tail = "eta   0.0s"
        self.stream.write(
            f"\r[{self.label}] {self.done}/{self.total} cells, "
            f"elapsed {elapsed:5.1f}s, {tail}"
        )
        self.stream.flush()

    def finish(self) -> float:
        """Close the progress line; returns total elapsed seconds."""
        elapsed = time.perf_counter() - self.started
        if self.enabled:
            self.stream.write("\n")
            self.stream.flush()
        return elapsed


# ---------------------------------------------------------------------------
# Job-count resolution
# ---------------------------------------------------------------------------
def available_cpus() -> int:
    """CPUs actually usable by this process, not the machine's total.

    Prefers :func:`os.process_cpu_count` (Python 3.13+: respects cgroup
    quotas and CPU affinity, so containers don't over-subscribe), then
    the affinity mask, then :func:`os.cpu_count`.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        count = process_cpu_count()
        if count:
            return count
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    if sched_getaffinity is not None:
        try:
            count = len(sched_getaffinity(0))
            if count:
                return count
        except OSError:  # pragma: no cover - platform-specific
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0``/negative means all
    usable cores (see :func:`available_cpus`)."""
    if jobs is None or jobs <= 0:
        return available_cpus()
    return jobs


# ---------------------------------------------------------------------------
# run_cells
# ---------------------------------------------------------------------------
def _run_cell(
    index: int, fn: Callable[..., Any], kwargs: dict
) -> tuple[int, bool, Any]:
    """Worker entry point: run one cell, tagging its result.

    Returns ``(index, ok, payload)`` where ``payload`` is the result on
    success or the formatted remote traceback on failure.  Exceptions
    never propagate through the executor machinery, so the parent always
    learns which cell failed and sees the traceback from the raise site.
    """
    try:
        return index, True, fn(**kwargs)
    except Exception:
        return index, False, traceback.format_exc()


def _mp_context() -> multiprocessing.context.BaseContext:
    """Fork-family context when the platform offers one (cheap start-up,
    copy-on-write inheritance of imports and read-only tables)."""
    methods = multiprocessing.get_all_start_methods()  # always has "spawn"
    preferred = next(m for m in ("fork", "forkserver", "spawn") if m in methods)
    return multiprocessing.get_context(preferred)


def run_cells(
    specs: Sequence[CellSpec],
    jobs: Optional[int] = 1,
    progress: bool = False,
    label: str = "sweep",
    common: Optional[dict] = None,
) -> list[Any]:
    """Run every cell and return results in spec order.

    ``jobs=1`` (the default) runs cells in-process in list order — the
    exact serial loop the sweeps used before this engine existed.
    ``jobs>1`` submits one future per cell to a process pool that lives
    exactly as long as this call; ``jobs=None``/``jobs<=0`` uses every
    usable core.

    ``common`` holds kwargs shared by every cell; it is merged under each
    spec's kwargs, with the spec winning on collision.
    """
    jobs = resolve_jobs(jobs)
    common = common or {}
    reporter = SweepProgress(len(specs), label=label, enabled=progress)
    if jobs == 1 or len(specs) <= 1:
        results = []
        for spec in specs:
            results.append(spec.run(common))
            reporter.update()
        reporter.finish()
        return results

    results: list[Any] = [None] * len(specs)
    workers = min(jobs, len(specs))  # fork starts every worker up front
    pool = ProcessPoolExecutor(workers, mp_context=_mp_context())
    try:
        # Submission stays inside the guard: a worker dying mid-loop makes
        # the *next* submit raise BrokenProcessPool too.
        futures = [
            pool.submit(_run_cell, index, spec.fn, {**common, **spec.kwargs})
            for index, spec in enumerate(specs)
        ]
        for future in as_completed(futures):
            index, ok, payload = future.result()
            if not ok:
                raise CellError(specs[index].key, payload)
            results[index] = payload
            reporter.update()
    except BrokenProcessPool as exc:
        # A worker died without reporting (segfault, OOM-kill, os._exit).
        raise RuntimeError(
            f"a worker process of the {label!r} sweep died abruptly "
            "(killed or crashed)"
        ) from exc
    finally:
        # Queued cells are dropped and in-flight ones awaited, so no worker
        # outlives the call whichever way it ends.
        pool.shutdown(wait=True, cancel_futures=True)
        reporter.finish()
    return results


# ---------------------------------------------------------------------------
# --jobs flag
# ---------------------------------------------------------------------------
def _jobs_count(raw: str) -> int:
    """argparse ``type`` for ``--jobs``: a non-negative integer."""
    try:
        parsed = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects an integer, got {raw!r}"
        ) from None
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def comma_ints(raw: str) -> list[int]:
    """argparse ``type`` for ``N,M,...`` lists (``--users``, ``--jobs-levels``)."""
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {raw!r}"
        ) from None


def add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    """Declare the one ``--jobs N`` flag every parallel sweep takes.

    ``0`` is valid and means "all usable cores"; a missing, non-integer
    or negative value exits with a usage error, and the last occurrence
    wins when the flag is repeated.
    """
    parser.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        metavar="N",
        help="worker processes for independent cells (0 = all cores)",
    )
