"""Parallel experiment-execution engine: persistent warm workers.

The paper's evaluation (§6, Figures 3–4) — and every ablation grown on
top of it — is a grid of *independent* simulation cells: one full
simulated run per (deadline, P_c, lazy-update-interval, seed)
combination.  Cells share no state, so the sweep is embarrassingly
parallel; this module is the one place that knows how to fan a list of
cells out across worker processes and collect the results in order.

The first runner (ISSUE 2) paid for its parallelism twice per sweep: a
fresh ``ProcessPoolExecutor`` per ``run_cells`` call (process start-up,
re-imports under spawn-like start methods) and one pickled round-trip
per *cell* (kwargs out, nested result dicts back).  On short sweeps the
overhead ate the speedup — ``benchmarks/results.txt`` recorded 0.94x.
This version removes both costs:

* **Warm persistent pools.**  Worker pools outlive a single ``run_cells``
  call: they are cached per ``(workers, shared-config token)`` and reused
  by every subsequent sweep with a compatible configuration, so workers
  are forked once, import the simulation stack once, and stay warm for
  the whole bench session.  The start method prefers ``fork`` (workers
  inherit the parent's imports and read-only tables copy-on-write), then
  ``forkserver``, then ``spawn``.
* **Shared read-only config.**  ``run_cells(..., common=...)`` ships the
  kwargs every cell has in common (workload tables, request counts,
  strategy objects) exactly once per worker — through the pool
  initializer — so per-cell dispatch is only the small varying part of
  the :class:`CellSpec`.
* **Chunked dispatch.**  Cells are dispatched in chunks of ``k`` so one
  executor round-trip (submit, pickle, wake worker, return) is amortized
  over ``k`` cells.  Results are reassembled in spec order regardless of
  chunking or completion order, and the chunk size only affects wall
  clock, never results.
* **Compact returns.**  Optional ``encode``/``decode`` hooks run on the
  worker/parent side of the boundary so bulky results (telemetry
  snapshots) cross the pipe as flat byte payloads instead of nested
  dicts — see :func:`repro.obs.metrics.encode_snapshot`.

Unchanged invariants:

* :class:`CellSpec` is pickle-safe by construction: the cell function is
  a *module-level* callable (pickled by reference) and the kwargs are
  plain data.  Whatever a worker needs is in the spec (or the shared
  ``common`` mapping) — workers never read ambient state.
* Seeds are data, not position: a spec carries the exact seed the serial
  loop would have used, and sweeps that need per-cell streams derive
  them with :func:`repro.sim.rng.seed_for` *before* building specs, so
  results are independent of execution order, chunking, and process
  placement.
* ``jobs=1`` bypasses the executor entirely — cells run in-process, in
  list order, making the serial path bit-identical to a hand-written
  ``for`` loop (and to the pre-runner behaviour of every sweep).
* A cell that raises in a worker surfaces as :class:`CellError` carrying
  the cell key and the *original* remote traceback; remaining work is
  cancelled and the pool stays usable.

Typical use::

    specs = [CellSpec(key, run_figure4_cell, kwargs) for key, kwargs in grid]
    cells = run_cells(specs, jobs=4, progress=True, label="figure4",
                      common=shared_kwargs)
    results = dict(zip([s.key for s in specs], cells))
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import multiprocessing
import os
import pickle
import sys
import time
import traceback
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
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
        if common:
            return self.fn(**{**common, **self.kwargs})
        return self.fn(**self.kwargs)


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
# Job-count / chunk-size resolution
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


def resolve_chunk_size(
    chunk_size: Optional[int], num_cells: int, jobs: int
) -> int:
    """Pick the number of cells dispatched per worker round-trip.

    The heuristic targets ~4 chunks per worker: large enough to amortize
    the submit/pickle/wake round-trip on big grids, small enough that the
    tail of a sweep still load-balances across the pool.  Small grids
    (fewer cells than 4x workers) degenerate to one cell per chunk, which
    is optimal for balance.  Explicit positive ``chunk_size`` wins.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
        return chunk_size
    return max(1, num_cells // (jobs * 4))


# ---------------------------------------------------------------------------
# Warm worker pools
# ---------------------------------------------------------------------------
#: Worker-side store for the shared read-only config, installed once per
#: worker by the pool initializer (fork children also inherit the parent's
#: copy via copy-on-write, but the initializer works for every start method).
_WORKER_COMMON: dict[str, Optional[dict]] = {}

#: Parent-side cache of live pools, keyed by (workers, common token).  Small
#: and LRU-evicted: a bench session alternating jobs levels keeps each level's
#: pool warm without accumulating process trees.
_POOLS: "OrderedDict[tuple[int, Optional[str]], ProcessPoolExecutor]" = OrderedDict()
_MAX_POOLS = 3


def _worker_init(token: Optional[str], common: Optional[dict]) -> None:
    """Pool initializer: runs once per worker process."""
    if token is not None:
        _WORKER_COMMON[token] = common


def _run_chunk(
    token: Optional[str],
    items: Sequence[tuple[int, Callable[..., Any], dict]],
    encode: Optional[Callable[[Any], Any]],
) -> list[tuple[int, bool, Any]]:
    """Worker entry point: run a chunk of cells, tagging each result.

    Each element of the returned list is ``(index, ok, payload)`` where
    ``payload`` is the (optionally encoded) result on success or the
    formatted remote traceback on failure.  Exceptions never propagate
    through the executor machinery, so one bad cell cannot poison the
    other results of its chunk nor obscure which cell failed.
    """
    common = _WORKER_COMMON.get(token) if token is not None else None
    out: list[tuple[int, bool, Any]] = []
    for index, fn, kwargs in items:
        try:
            value = fn(**{**common, **kwargs}) if common else fn(**kwargs)
            if encode is not None:
                value = encode(value)
            out.append((index, True, value))
        except Exception:
            out.append((index, False, traceback.format_exc()))
    return out


def _mp_context() -> multiprocessing.context.BaseContext:
    """Fork-family context when the platform offers one (cheap start-up,
    copy-on-write inheritance of imports and read-only tables)."""
    methods = multiprocessing.get_all_start_methods()
    for preferred in ("fork", "forkserver", "spawn"):
        if preferred in methods:
            return multiprocessing.get_context(preferred)
    return multiprocessing.get_context()  # pragma: no cover - unreachable


def _common_token(common: Optional[dict]) -> Optional[str]:
    """Stable content digest of the shared config (pool-cache key part).

    Two sweeps whose ``common`` pickles identically share a warm pool;
    a different config forks a fresh pool so workers never see stale
    shared state.
    """
    if common is None:
        return None
    payload = pickle.dumps(sorted(common.items(), key=lambda kv: kv[0]))
    return hashlib.sha256(payload).hexdigest()


def warm_pool(
    workers: int, common: Optional[dict] = None
) -> ProcessPoolExecutor:
    """Return the persistent pool for ``(workers, common)``, creating it
    on first use.  Pools survive across ``run_cells`` calls; the least
    recently used pool is shut down once more than ``_MAX_POOLS`` are
    alive."""
    key = (workers, _common_token(common))
    pool = _POOLS.get(key)
    if pool is not None:
        _POOLS.move_to_end(key)
        return pool
    while len(_POOLS) >= _MAX_POOLS:
        _, stale = _POOLS.popitem(last=False)
        stale.shutdown(wait=False, cancel_futures=True)
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_mp_context(),
        initializer=_worker_init,
        initargs=(key[1], common),
    )
    _POOLS[key] = pool
    return pool


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Drop a broken pool from the cache so the next sweep starts fresh."""
    for key, cached in list(_POOLS.items()):
        if cached is pool:
            del _POOLS[key]
    pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every warm pool (atexit hook; also useful in tests)."""
    while _POOLS:
        _, pool = _POOLS.popitem(last=False)
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# run_cells
# ---------------------------------------------------------------------------
def run_cells(
    specs: Sequence[CellSpec],
    jobs: Optional[int] = 1,
    progress: bool = False,
    label: str = "sweep",
    chunk_size: Optional[int] = None,
    common: Optional[dict] = None,
    encode: Optional[Callable[[Any], Any]] = None,
    decode: Optional[Callable[[Any], Any]] = None,
) -> list[Any]:
    """Run every cell and return results in spec order.

    ``jobs=1`` (the default) runs cells in-process in list order — the
    exact serial loop the sweeps used before this engine existed.
    ``jobs>1`` fans chunks of cells out across a persistent warm pool
    (see module docstring); ``jobs=None``/``jobs<=0`` uses every usable
    core.

    ``common`` holds kwargs shared by every cell; it is shipped once per
    worker (not per cell) and merged under each spec's kwargs, with the
    spec winning on collision.  ``encode`` runs on each result inside the
    worker and ``decode`` on the parent — a matched pair turns bulky
    results into flat payloads for the trip home.  Both must be
    module-level callables; neither runs on the serial path, so a codec
    must round-trip exactly for ``jobs=1 == jobs=N`` to hold (the
    property tests enforce this).
    """
    jobs = resolve_jobs(jobs)
    reporter = SweepProgress(len(specs), label=label, enabled=progress)
    if jobs == 1 or len(specs) <= 1:
        results = []
        for spec in specs:
            results.append(spec.run(common))
            reporter.update()
        reporter.finish()
        return results

    chunk = resolve_chunk_size(chunk_size, len(specs), jobs)
    indexed = [(i, spec.fn, spec.kwargs) for i, spec in enumerate(specs)]
    chunks = [indexed[i : i + chunk] for i in range(0, len(indexed), chunk)]
    keys = [spec.key for spec in specs]
    token = _common_token(common) if common is not None else None

    results: list[Any] = [None] * len(specs)
    pool = warm_pool(jobs, common)
    futures: set = set()
    try:
        # Submission stays inside the guard: a worker dying mid-loop makes
        # the *next* submit raise BrokenProcessPool too.
        for chunk_items in chunks:
            futures.add(pool.submit(_run_chunk, token, chunk_items, encode))
        while futures:
            finished, futures = wait(futures, return_when=FIRST_COMPLETED)
            for future in finished:
                chunk_results = future.result()
                for index, ok, payload in chunk_results:
                    if not ok:
                        raise CellError(keys[index], payload)
                    results[index] = decode(payload) if decode is not None else payload
                reporter.update(len(chunk_results))
    except BrokenProcessPool as exc:
        # A worker died without reporting (segfault, OOM-kill, os._exit):
        # the pool is unusable, so evict it — the next sweep forks fresh.
        _discard_pool(pool)
        raise RuntimeError(
            f"a worker process of the {label!r} sweep died abruptly "
            "(killed or crashed); the warm pool was discarded"
        ) from exc
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    finally:
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
