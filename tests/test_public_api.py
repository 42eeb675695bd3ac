"""The public API surface: everything a README user would import."""

import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


def test_top_level_lazy_exports():
    import repro

    assert repro.QoSSpec is not None
    assert repro.ReplicatedService is not None
    assert repro.ServiceConfig is not None
    assert repro.OrderingGuarantee is not None
    assert repro.__version__
    with pytest.raises(AttributeError):
        repro.does_not_exist


@pytest.mark.parametrize(
    "module",
    [
        "repro.sim",
        "repro.net",
        "repro.groups",
        "repro.stats",
        "repro.core",
        "repro.core.handlers",
        "repro.baselines",
        "repro.apps",
        "repro.workloads",
        "repro.experiments",
        "repro.cli",
    ],
)
def test_packages_importable_and_documented(module):
    mod = importlib.import_module(module)
    assert mod.__doc__, f"{module} lacks a module docstring"


@pytest.mark.parametrize(
    "module",
    [
        "repro.sim",
        "repro.net",
        "repro.groups",
        "repro.stats",
        "repro.core",
        "repro.baselines",
        "repro.apps",
        "repro.workloads",
        "repro.experiments",
    ],
)
def test_dunder_all_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert getattr(mod, name, None) is not None, f"{module}.{name} missing"


ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_resolve(path):
    """Every example runs to the end as ``__main__``, in its own process:
    that catches a name it imports having moved or gone, and a call to a
    method that no longer exists (an import alone runs nothing)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_core_public_classes_have_docstrings():
    import repro.core as core

    for name in core.__all__:
        obj = getattr(core, name)
        if isinstance(obj, type):
            assert obj.__doc__, f"repro.core.{name} lacks a docstring"


def test_readme_quickstart_snippet_runs():
    """The README's quickstart must stay executable verbatim-ish."""
    from repro.core.qos import QoSSpec
    from repro.core.service import ServiceConfig, build_testbed
    from repro.sim.process import Process

    testbed = build_testbed(
        ServiceConfig(num_primaries=4, num_secondaries=6,
                      lazy_update_interval=2.0),
        seed=42,
    )
    client = testbed.service.create_client("alice", read_only_methods={"get"})
    qos = QoSSpec(staleness_threshold=2, deadline=0.150, min_probability=0.9)
    results = []

    def workload():
        yield client.call("increment")
        outcome = yield client.call("get", (), qos)
        results.append(outcome)

    Process(testbed.sim, workload())
    testbed.sim.run(until=10.0)
    assert len(results) == 1
    assert results[0].value == 1


#: Every field of ``ServiceConfig`` and of the config classes that ride
#: with it — the twin of ``FLAG_SURFACE`` in tests/test_cli.py.  A new
#: knob (or a removed one) is a one-line diff here, visible in review.
CONFIG_SURFACE = {
    "repro.core.config.ServiceConfig": (
        "name num_primaries num_secondaries ordering lazy_update_interval "
        "adaptive_lazy_target window_size read_service_time "
        "update_service_time membership gsn_wait_timeout gc_timeout overload "
        "detector controller"
    ),
    "repro.core.overload.OverloadConfig": "queue_capacity defer_capacity",
    "repro.core.detector.DetectorConfig": (
        "window_size min_samples probe_interval"
    ),
    "repro.core.controller.ControllerConfig": (
        "hold_epochs max_relax_steps relax_fast_burn relax_slow_burn t_l_max "
        "dry_run"
    ),
    "repro.groups.membership.MembershipConfig": (
        "heartbeat_interval suspect_timeout"
    ),
    "repro.core.client.RetryPolicy": "max_retries hedge",
    "repro.net.chaos.ChaosConfig": (
        "duration mean_interval crash_weight partition_weight overload_weight "
        "loss_weight membership_outage_weight load_storm_weight "
        "slow_node_weight flapping_link_weight oneway_partition_weight "
        "dup_storm_weight overload_window storm_window storm_factor"
    ),
}

#: Fields no caller outside tests and examples passes yet, and why each
#: stays a field anyway.
UNCALLED_FIELDS = {
    # The paper's §2 dial (sequential, FIFO, causal).  No campaign or
    # benchmark runs a FIFO or causal service until ROADMAP items 16(d)
    # and 18(a) audit every ordering from the client's side.
    "repro.core.config.ServiceConfig": {"ordering"},
    # Set through ``run_campaign(chaos_overrides=...)``, whose dict keys
    # (``repro chaos --membership-outage-weight``/``--overload-window``)
    # this keyword scan does not see.
    "repro.net.chaos.ChaosConfig": {"membership_outage_weight", "overload_window"},
}


@pytest.mark.parametrize("path", sorted(CONFIG_SURFACE))
def test_config_surface_is_pinned(path):
    import dataclasses

    module, _, name = path.rpartition(".")
    cls = getattr(importlib.import_module(module), name)
    fields = [f.name for f in dataclasses.fields(cls)]
    assert fields == CONFIG_SURFACE[path].split()


def test_every_config_field_has_a_caller():
    """A knob nobody turns is a constant: every field of the pinned
    classes is passed by keyword somewhere under ``src/`` or
    ``benchmarks/``, outside the module that declares it."""
    import ast
    import dataclasses

    root = Path(__file__).resolve().parents[1]
    keywords: dict[Path, set[str]] = {}
    for tree in ("src", "benchmarks"):
        for path in sorted((root / tree).rglob("*.py")):
            keywords[path] = {
                keyword.arg
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
                for keyword in node.keywords
                if keyword.arg is not None
            }
    unused = []
    for path in CONFIG_SURFACE:
        module, _, name = path.rpartition(".")
        cls = getattr(importlib.import_module(module), name)
        home = root.joinpath("src", *module.split(".")).with_suffix(".py")
        passed = set().union(*(kw for p, kw in keywords.items() if p != home))
        allowed = UNCALLED_FIELDS.get(path, set())
        unused += [
            f"{path}.{field.name}"
            for field in dataclasses.fields(cls)
            if field.name not in passed | allowed
        ]
    assert not unused, f"config fields no caller sets: {unused}"


def test_no_property_spells_a_registry_counter():
    """A count has one spelling: the registry instrument, read as
    ``handler.reads_judged.value``.  No ``@property`` under ``src/`` may
    hand back ``self.<instrument>.value`` as a second name for it."""
    import ast

    root = Path(__file__).resolve().parents[1] / "src"
    hits = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not any(
                isinstance(d, ast.Name) and d.id == "property"
                for d in node.decorator_list
            ):
                continue
            body = [
                stmt for stmt in node.body
                if not (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
            ]
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            value = body[0].value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "value"
                and isinstance(value.value, ast.Attribute)
                and isinstance(value.value.value, ast.Name)
                and value.value.value.id == "self"
            ):
                hits.append(f"{path.relative_to(root)}:{node.lineno} {node.name}")
    assert not hits, f"properties that re-spell a registry counter: {hits}"


#: Definitions under ``src/`` that nothing outside ``tests/`` calls, each
#: with the reason it stays.  A "test seam" names the test that needs it;
#: anything else with no caller is deleted, with its tests.
UNCALLED_DEFINITIONS = {
    "repro.groups.group:GroupEndpoint.fifo_receiver": (
        "test seam: tests/core/test_named_stamps.py"
        "::test_an_assignment_waits_only_behind_a_stamp_that_was_sent"
    ),
    "repro.groups.group:GroupEndpoint.fifo_sender": (
        "test seam: tests/groups/test_multicast.py"
        "::test_reliable_delivery_under_heavy_loss"
    ),
    "repro.groups.multicast:FifoReceiver.pending_for": (
        "test seam: tests/groups/test_multicast.py::test_receiver_buffers_out_of_order"
    ),
    "repro.net.latency:FixedLatency": (
        "test seam: tests/net/test_latency.py::test_fixed_latency_is_deterministic"
    ),
    "repro.net.network:Network.set_link": (
        "test seam: tests/net/test_network.py::test_per_link_latency_override"
    ),
    "repro.sim.rng:LogNormal": (
        "test seam: tests/sim/test_rng.py::test_lognormal_mean"
    ),
    "repro.sim.kernel:Simulator.heap_size": (
        "test seam: tests/sim/test_kernel.py"
        "::test_mass_cancel_does_not_grow_heap_unboundedly"
    ),
    "repro.sim.kernel:Simulator.tombstones": (
        "test seam: tests/sim/test_kernel.py"
        "::test_mass_cancel_interleaved_with_live_timers"
    ),
    "repro.stats.pmf:DiscretePmf.degenerate": (
        "test seam: tests/stats/test_pmf.py::test_degenerate_point_mass"
    ),
}


@functools.cache
def _definitions_and_uses():
    """Every ``def``/``class`` under ``src/`` (nested ones included, dunders
    not), and every name a module-level assignment binds, as
    ``module:qualname -> (path, name, first line, last line)``,
    and every use under ``src/``, ``benchmarks/`` and ``examples/`` as
    ``name -> [(path, line)]``.

    A use is an ``ast.Name``, an ``ast.Attribute``, an imported name, or a
    word of a string constant that is not a docstring (``getattr``
    dispatch, the ledger tracer's ``ENTRY_POINTS``).  A package
    ``__init__.py``'s imports re-export, and any module's ``__all__``
    exports; they use nothing.
    """
    import ast
    import re

    root = Path(__file__).resolve().parents[1]
    word = re.compile(r"[A-Za-z_]\w*")
    definitions: dict[str, tuple[Path, str, int, int]] = {}
    uses: dict[str, list[tuple[Path, int]]] = {}

    def define(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    definitions[f"{module}:{qualname}"] = (
                        path, child.name, first, child.end_lineno,
                    )
                define(child, path, module, qualname + ".")
            else:
                define(child, path, module, prefix)

    for tree in ("src", "benchmarks", "examples"):
        for path in sorted((root / tree).rglob("*.py")):
            module_ast = ast.parse(path.read_text())
            if tree == "src":
                module = ".".join(path.relative_to(root / tree).with_suffix("").parts)
                define(module_ast, path, module, "")
                for node in module_ast.body:
                    if isinstance(node, (ast.Assign, ast.AnnAssign)):
                        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                        for target in targets:
                            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                                definitions[f"{module}:{target.id}"] = (
                                    path, target.id, node.lineno, node.end_lineno,
                                )
            reexports = path.name == "__init__.py"
            skipped = {
                id(node.value)
                for node in ast.walk(module_ast)
                if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            }
            # A module's ``__all__`` exports a name; it uses nothing.
            skipped |= {
                id(sub)
                for node in ast.walk(module_ast)
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for sub in ast.walk(node)
            }
            for node in ast.walk(module_ast):
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [] if reexports else [
                        alias.name.rpartition(".")[2] for alias in node.names
                    ]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = word.findall(node.value)
                else:
                    continue
                for name in names:
                    uses.setdefault(name, []).append((path, node.lineno))
    return definitions, uses


def _uncalled(kept):
    """The definitions with no use outside their own span.  A use inside
    an uncalled definition does not count either, iterated to a fixpoint:
    a helper whose only callers are uncalled goes with them.  The ``kept``
    definitions count as called."""
    definitions, uses = _definitions_and_uses()

    def inside(span, path, line):
        span_path, _, first, last = span
        return span_path == path and first <= line <= last

    uncalled: set[str] = set()
    while True:
        dead = [definitions[key] for key in uncalled]
        found = {
            key
            for key, span in definitions.items()
            if key not in uncalled and key not in kept
            and not any(
                not inside(span, path, line)
                and not any(inside(other, path, line) for other in dead)
                for path, line in uses.get(span[1], ())
            )
        }
        if not found:
            return uncalled
        uncalled |= found


def test_every_definition_has_a_caller():
    """Every function, method and class under ``src/`` is used from
    ``src/``, ``benchmarks/`` or ``examples/``, or is a listed test seam."""
    uncalled = _uncalled(set(UNCALLED_DEFINITIONS))
    assert not uncalled, f"definitions only tests call: {sorted(uncalled)}"


def test_uncalled_definitions_are_uncalled_and_name_their_test():
    """Each allow-list entry still has no caller, and a test seam names a
    test that exists."""
    import ast

    root = Path(__file__).resolve().parents[1]
    definitions, _ = _definitions_and_uses()
    uncalled = _uncalled(set())
    problems = []
    for key, reason in UNCALLED_DEFINITIONS.items():
        if key not in definitions:
            problems.append(f"{key}: no such definition")
        elif key not in uncalled:
            problems.append(f"{key}: has a caller now; drop the entry")
        if reason.startswith("test seam"):
            path, _, test = reason.partition(": ")[2].partition("::")
            file = root / path
            tests = {
                node.name
                for node in ast.parse(file.read_text()).body
                if isinstance(node, ast.FunctionDef)
            } if file.is_file() else set()
            if test not in tests:
                problems.append(f"{key}: {reason} names no test")
    assert not problems, problems


#: The two gateway handlers keep the paper's pipeline; each optional policy
#: lives with the collaborator that owns its decision (DESIGN.md §3).
HANDLER_LINE_LIMIT = 550


@pytest.mark.parametrize(
    "module", ["core/client.py", "core/handlers/sequential.py"]
)
def test_gateway_handlers_stay_small(module):
    path = Path(__file__).resolve().parents[1] / "src" / "repro" / module
    lines = len(path.read_text().splitlines())
    assert lines <= HANDLER_LINE_LIMIT, (
        f"{module} has {lines} lines; a policy that grew it belongs in the "
        f"module that owns its decision"
    )
