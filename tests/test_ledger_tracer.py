"""The ledger tracer's patch points still exist where it looks for them.

``benchmarks/ledger/tracer.py`` patches each entry point through
``owner.__dict__[attr]``, so a method that moved out of its class body — to
a base class, a collaborator or a mixin — breaks the traced ledger run.
This loads the tracer by path, unedited, and resolves every row.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("ledger_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize(
    "layer, module, owner, attr",
    tracer.ENTRY_POINTS,
    ids=[f"{o or m}.{a}" for _, m, o, a in tracer.ENTRY_POINTS],
)
def test_entry_point_is_defined_in_its_owner(layer, module, owner, attr):
    assert layer in tracer.LAYERS
    imported = importlib.import_module(module)
    target = getattr(imported, owner) if owner else imported
    raw = target.__dict__[attr]
    assert callable(getattr(raw, "__func__", raw))  # classmethods too


def test_scheduler_patch_points_are_defined_on_the_simulator():
    from repro.sim.kernel import Simulator

    assert {"schedule_at", "schedule_batch"} <= set(Simulator.__dict__)


@pytest.mark.parametrize("module, name", tracer.CAPTURED)
def test_captured_class_imports(module, name):
    cls = getattr(importlib.import_module(module), name)
    assert "__init__" in cls.__dict__


@pytest.mark.parametrize("module, base, hooks", tracer.OVERRIDDEN_HOOKS)
def test_overridden_hook_base_imports(module, base, hooks):
    cls = getattr(importlib.import_module(module), base)
    assert all(hasattr(cls, hook) for hook in hooks)
