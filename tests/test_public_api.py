"""The public API surface: everything a README user would import."""

import importlib
import importlib.util
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


EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_resolve(path):
    """Every example is ``__main__``-guarded, so importing it runs nothing
    but catches a name it imports having moved or gone."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


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
        "update_service_time heartbeat_interval suspect_timeout "
        "gsn_wait_timeout gc_timeout overload detector controller"
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
        "dup_storm_weight overload_window storm_window storm_factor "
        "slow_window slow_factor slow_jitter flap_window flap_period "
        "dup_window dup_probability"
    ),
}

#: Fields no caller outside tests and examples passes yet, and why each
#: stays a field anyway.
UNCALLED_FIELDS = {
    # The paper's §2 dial (sequential, FIFO, causal).  No campaign or
    # benchmark runs a FIFO or causal service until ROADMAP item 1(d)
    # audits every ordering from the client's side.
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
