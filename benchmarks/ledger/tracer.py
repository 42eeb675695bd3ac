"""Outside-in tracer: per-layer self time without touching ``src/``.

:meth:`Tracer.install` patches, at class level and before a traced cell
is built,

* ``Simulator.schedule_at`` / ``schedule_batch`` so that every event
  callback runs inside a span labelled with the package that owns the
  callback (``callback.__module__`` -> ``repro.<layer>``), and
* the public entry points through which one layer calls another
  (:data:`ENTRY_POINTS`, plus every override of the delivery hooks and of
  ``select`` / ``snapshot`` / ``restore`` in a subclass).

There is one thread, so attribution is a single running clock: at every
span boundary the time since the previous boundary is added to the span
on top of the stack.  A span's self time is therefore its duration minus
the part its child spans cover, and the self times of one cell sum to
the wall time spent inside its outermost spans.

Wrapping costs time, and that time lands partly in the span being
entered or left and partly in its parent.  How much it costs in total is
known only to the caller, who ran the same cells untraced; the tracer
contributes :attr:`Tracer.inner_share`, the measured share of one span's
overhead that is billed to the span itself, and the call and child counts
needed to take the overhead back out of every span's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = ("sim", "net", "groups", "core", "stats", "obs", "workloads")

#: ``(layer, module, class or None, attribute)``: the cross-layer entry
#: points.  The layer is named explicitly because ``Trace`` lives in
#: ``repro.sim`` but is telemetry.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("sim", "repro.sim.kernel", "Simulator", "run"),
    ("sim", "repro.sim.kernel", "Simulator", "step"),
    ("sim", "repro.sim.process", "Signal", "fire"),
    ("net", "repro.net.network", "Network", "send"),
    ("net", "repro.net.network", "Network", "multicast"),
    ("groups", "repro.groups.group", "GroupEndpoint", "deliver"),
    ("groups", "repro.groups.group", "GroupEndpoint", "gmcast"),
    ("groups", "repro.groups.group", "GroupEndpoint", "gsend"),
    ("groups", "repro.groups.membership", "MembershipService", "deliver"),
    ("groups", "repro.groups.multicast", "FifoSender", "send"),
    ("groups", "repro.groups.multicast", "FifoSender", "send_to_all"),
    ("groups", "repro.groups.multicast", "FifoSender", "on_ack"),
    ("groups", "repro.groups.multicast", "FifoReceiver", "on_data"),
    ("core", "repro.core.client", "ClientHandler", "invoke"),
    ("core", "repro.core.client", "ClientHandler", "candidate_views"),
    ("core", "repro.core.client", "ClientHandler", "record_aggregate_batch"),
    ("core", "repro.core.prediction", "ResponseTimePredictor", "response_cdfs"),
    ("core", "repro.core.prediction", "ResponseTimePredictor", "immediate_cdf"),
    ("core", "repro.core.prediction", "ResponseTimePredictor", "candidate_cdfs"),
    ("core", "repro.core.prediction", "ResponseTimePredictor", "response_pmfs"),
    ("core", "repro.core.prediction", "ResponseTimePredictor", "staleness_factor"),
    ("stats", "repro.stats.pmf", "DiscretePmf", "from_samples"),
    ("stats", "repro.stats.pmf", "DiscretePmf", "from_histogram"),
    ("stats", "repro.stats.pmf", "DiscretePmf", "convolve"),
    ("stats", "repro.stats.pmf", "DiscretePmf", "cdf"),
    ("stats", "repro.stats.pmf", "DiscretePmf", "cdf_many"),
    ("stats", "repro.stats.pmf", "DiscretePmf", "sample"),
    ("stats", "repro.stats.pmf", None, "convolve_all"),
    ("stats", "repro.stats.sliding_window", "SlidingWindow", "record"),
    ("obs", "repro.obs.metrics", "Counter", "inc"),
    ("obs", "repro.obs.metrics", "Gauge", "set"),
    ("obs", "repro.obs.metrics", "Histogram", "observe"),
    ("obs", "repro.obs.metrics", "Histogram", "observe_many"),
    ("obs", "repro.sim.tracing", "Trace", "emit"),
    ("workloads", "repro.workloads.scenarios", "PaperScenario", "run"),
)

#: ``(module, base class, methods)``: hooks that subclasses override.
#: Every override is wrapped and labelled with the layer of the module
#: that defines it, so replica-handler time is not billed to ``groups``.
OVERRIDDEN_HOOKS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    (
        "repro.groups.group",
        "GroupEndpoint",
        ("on_group_message", "on_message", "on_view_change"),
    ),
    ("repro.core.selection", "SelectionStrategy", ("select",)),
    ("repro.core.state", "ReplicatedObject", ("snapshot", "restore")),
)

#: Span arguments worth summing: name -> how to read the amount.
AMOUNTS: Dict[str, Callable[[tuple, dict], float]] = {
    # sample(self, n, rng): variates drawn.
    "DiscretePmf.sample": lambda args, kwargs: args[1] if len(args) > 1 else kwargs["n"],
    # schedule_batch(self, times, ...): events scheduled.
    "Simulator.schedule_batch": lambda args, kwargs: len(args[1]),
}

#: Classes whose instances a cell creates and whose public counters the
#: ledger reads afterwards (``run_campaign`` never hands them out).
CAPTURED = (
    ("repro.sim.kernel", "Simulator"),
    ("repro.groups.multicast", "FifoSender"),
    ("repro.groups.membership", "MembershipService"),
)


def layer_of(module: Optional[str]) -> str:
    """``repro.<layer>.*`` -> layer; glue packages and foreign code apart."""
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1] if parts[1] in LAYERS else "glue"
    return "other"


def _all_subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


class Tracer:
    """Aggregates span self time per name; optionally keeps full spans."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []  # index -> (layer, name)
        self._index: Dict[Tuple[str, str], int] = {}
        self._by_code: Dict[Any, int] = {}
        self._self: List[float] = []
        self._inclusive: List[float] = []
        self._calls: List[int] = []
        self._children: List[int] = []
        self._amount: List[float] = []
        self._stack: List[list] = []
        self._last = 0.0  # when the running clock was last read
        self._spans: Optional[List[tuple]] = None
        self._next_span = 0
        self._patched: List[Tuple[Any, str, Any]] = []
        self.instances: Dict[str, list] = {}
        self.view_installs = 0
        self.inner_share = 0.5  # of one span's overhead, billed to itself
        self.installed = False

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _register(self, layer: str, name: str) -> int:
        key = (layer, name)
        idx = self._index.get(key)
        if idx is None:
            idx = self._index[key] = len(self.names)
            self.names.append(key)
            for column in (self._self, self._inclusive, self._amount):
                column.append(0.0)
            self._calls.append(0)
            self._children.append(0)
        return idx

    def _enter(self, idx: int) -> list:
        now = time.perf_counter()
        stack = self._stack
        if stack:
            top = stack[-1][0]
            self._self[top] += now - self._last
            self._children[top] += 1
        frame = [idx, now, 0]  # name index, start, span id when recording
        if self._spans is not None:
            self._next_span += 1
            frame[2] = self._next_span
        stack.append(frame)
        self._last = now
        return frame

    def _exit(self, frame: list) -> None:
        now = time.perf_counter()
        idx = frame[0]
        self._self[idx] += now - self._last
        stack = self._stack
        stack.pop()
        self._inclusive[idx] += now - frame[1]
        self._calls[idx] += 1
        if self._spans is not None and frame[2]:
            parent = stack[-1][2] if stack else 0
            self._spans.append((frame[2], idx, frame[1], now, parent))
        self._last = now

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        idx = self._register(layer, name)
        enter, leave = self._enter, self._exit
        amount = AMOUNTS.get(name)
        if amount is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)

        else:
            amounts = self._amount

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                amounts[idx] += amount(args, kwargs)
                frame = enter(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)

        return wrapper

    def _dispatcher(self) -> Callable:
        """The callable every scheduled event fires through."""
        by_code = self._by_code
        enter, leave = self._enter, self._exit

        def dispatch(callback, *args):
            func = getattr(callback, "__func__", callback)
            func = getattr(func, "__wrapped__", func)  # an entry point as callback
            code = getattr(func, "__code__", None) or type(callback)
            idx = by_code.get(code)
            if idx is None:
                name = getattr(func, "__qualname__", type(callback).__name__)
                idx = by_code[code] = self._register(
                    layer_of(getattr(func, "__module__", None)), f"event:{name}"
                )
            frame = enter(idx)
            try:
                return callback(*args)
            finally:
                leave(frame)

        return dispatch

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_callable(self, owner: Any, attr: str, layer: str) -> None:
        raw = owner.__dict__[attr]
        owner_name = getattr(owner, "__qualname__", None)
        is_class = isinstance(owner, type)
        name = f"{owner_name}.{attr}" if is_class else attr
        if isinstance(raw, classmethod):  # DiscretePmf.from_samples and co.
            replacement: Any = classmethod(self._wrap(raw.__func__, layer, name))
        else:
            replacement = self._wrap(raw, layer, name)
        self._patch(owner, attr, replacement)

    def install(self) -> None:
        """Patch the entry points.  Call before the traced cell is built."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        for layer, module_name, class_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            self._patch_callable(owner, attr, layer)
        for module_name, class_name, hooks in OVERRIDDEN_HOOKS:
            base = getattr(importlib.import_module(module_name), class_name)
            for cls in [base] + _all_subclasses(base):
                layer = layer_of(cls.__module__)
                for hook in hooks:
                    # The base-class hooks of GroupEndpoint are empty
                    # stubs: wrapping them would only add spans.
                    if hook in cls.__dict__ and not (
                        cls is base and class_name == "GroupEndpoint"
                    ):
                        self._patch_callable(cls, hook, layer)
        self._patch_scheduler()
        self._patch_constructors()
        self.installed = True
        self.measure_overhead()

    def _patch_scheduler(self) -> None:
        from repro.sim.kernel import Simulator

        dispatch = self._dispatcher()
        schedule_at = Simulator.__dict__["schedule_at"]
        schedule_batch = Simulator.__dict__["schedule_batch"]

        def traced_schedule_at(sim, when, callback, *args, priority=0):
            return schedule_at(sim, when, dispatch, callback, *args, priority=priority)

        def traced_schedule_batch(sim, times, callback, args_list=None, priority=0):
            times = list(times)
            if args_list is None:
                wrapped = [(callback,)] * len(times)
            else:
                wrapped = [(callback, *args) for args in args_list]
            return schedule_batch(sim, times, dispatch, wrapped, priority)

        self._patch(
            Simulator, "schedule_at",
            self._wrap(traced_schedule_at, "sim", "Simulator.schedule_at"),
        )
        self._patch(
            Simulator, "schedule_batch",
            self._wrap(traced_schedule_batch, "sim", "Simulator.schedule_batch"),
        )

    def _patch_constructors(self) -> None:
        for module_name, class_name in CAPTURED:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch(cls, "__init__", self._capturing_init(cls, class_name))

    def _capturing_init(self, cls: type, class_name: str) -> Callable:
        init = cls.__dict__["__init__"]
        tracer = self

        def traced_init(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            tracer.instances.setdefault(class_name, []).append(instance)
            if class_name == "MembershipService":
                instance.observe(tracer._on_view)

        return traced_init

    def _on_view(self, view: Any) -> None:
        # Views installed while the clock still reads zero are the
        # topology builder registering members, not membership changes.
        if any(sim.now > 0.0 for sim in self.instances.get("Simulator", ())):
            self.view_installs += 1

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.installed = False

    # ------------------------------------------------------------------
    # Overhead model
    # ------------------------------------------------------------------
    def measure_overhead(self, calls: int = 20_000) -> None:
        """Time a wrapped no-op inside a wrapped loop against the bare loop,
        and keep which share of the difference the no-op's own span got."""

        def noop() -> None:
            return None

        def loop(fn: Callable[[], None]) -> None:
            for _ in range(calls):
                fn()

        traced_noop = self._wrap(noop, "other", "overhead.noop")
        traced_loop = self._wrap(loop, "other", "overhead.loop")
        noop_idx = self._index[("other", "overhead.noop")]
        shares = []
        for _ in range(5):
            start = time.perf_counter()
            loop(noop)
            bare = time.perf_counter() - start
            self.reset()
            start = time.perf_counter()
            traced_loop(traced_noop)
            added = time.perf_counter() - start - bare
            if added > 0.0:
                shares.append(min(1.0, self._self[noop_idx] / added))
        self.inner_share = sorted(shares)[len(shares) // 2] if shares else 0.5
        self.reset()

    # ------------------------------------------------------------------
    # Per-cell interface
    # ------------------------------------------------------------------
    def reset(self, record_spans: bool = False) -> None:
        """Zero the totals before a cell; keep full spans if asked."""
        for column in (self._self, self._inclusive, self._amount):
            column[:] = [0.0] * len(column)
        self._calls[:] = [0] * len(self._calls)
        self._children[:] = [0] * len(self._children)
        self._stack.clear()
        self._spans = [] if record_spans else None
        self._next_span = 0
        self.instances = {}
        self.view_installs = 0

    def totals(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """``(layer, name) -> {self, inclusive, calls, children, amount}``
        for the spans since :meth:`reset`, overhead included."""
        return {
            key: {
                "self": self._self[idx],
                "inclusive": self._inclusive[idx],
                "calls": self._calls[idx],
                "children": self._children[idx],
                "amount": self._amount[idx],
            }
            for idx, key in enumerate(self.names)
            if self._calls[idx]
        }

    def captured_sum(self, class_name: str, attribute: str) -> float:
        """Sum a public attribute over the instances the cell created."""
        return sum(
            getattr(instance, attribute)
            for instance in self.instances.get(class_name, ())
        )

    def take_spans(self) -> List[tuple]:
        """Hand over the full spans recorded since :meth:`reset`."""
        spans, self._spans = self._spans or [], None
        return spans

    def write_spans(self, path: str, spans: List[tuple], cell_id: str) -> int:
        """Dump spans from :meth:`take_spans`; returns how many.

        JSON lines: a header naming the cell, the columns and the
        ``[layer, name]`` table, then one row per span, in the order the
        spans ended.  Times are microseconds since the first span began;
        ``parent`` is the ``span`` id of the enclosing span, 0 for none.
        """
        origin = min((span[2] for span in spans), default=0.0)
        with open(path, "w") as fh:
            header = {
                "cell": cell_id,
                "columns": ["span", "name", "start_us", "end_us", "parent"],
                "names": self.names,
            }
            fh.write(json.dumps(header) + "\n")
            for span_id, idx, start, end, parent in spans:
                fh.write(
                    f"[{span_id},{idx},{1e6 * (start - origin):.2f},"
                    f"{1e6 * (end - origin):.2f},{parent}]\n"
                )
        return len(spans)
