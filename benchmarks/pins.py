"""Every seeded pin of the repository, kept in ``pins.json`` and checked one way.

A seeded simulation repeats exactly, so what it produced is pinned, not
tracked.  ``pins.json`` beside this module holds every such value, in three
sections:

* ``golden`` — the sha256 digests (and clear-text ``cost`` lines) of the
  seeded streams and campaign cells the tier-1 tests under ``tests/`` run;
* ``seeded`` — the seeded results the benches under ``benchmarks/`` produce;
* ``ledger`` — per workload, the counts of one traced ledger run
  (``benchmarks/ledger/run.py --workload W`` with :data:`LEDGER_ARGS`) that
  CI gates: a name in :data:`CEILINGS` may not exceed its recorded value
  rounded up to the next integer, every other name must equal its record.

A test or bench checks a value with the ``pin`` fixture, which is
:func:`check` bound to its section; CI checks the ledger section with
``python3 benchmarks/repin.py --check-ledger``.  A change that means to
move a pinned value re-records them all with ``python3 benchmarks/repin.py``,
which prints one line per value that moved.

Loaded as a pytest plugin (``-p pins``, which ``repin.py`` does), this
module also narrows a session to the modules that check a pin and the
tests marked ``smoke_seeds``.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from pathlib import Path

PIN_FILE = Path(__file__).with_name("pins.json")

#: Environment variable naming a JSON-lines file: while it is set,
#: :func:`check` appends ``[section, key, measured]`` there and asserts
#: nothing.  ``repin.py`` sets it.
RECORD = "REPRO_REPIN"

#: The ledger run whose counts the ``ledger`` section holds.
LEDGER_ARGS = ("--seed", "0", "--seconds", "4", "--trace", "1")

#: Ledger counts held under a ceiling rather than to their exact value.
CEILINGS = frozenset({"sim.events_per_op", "net.msgs_per_op", "groups.msgs_per_op"})


def load() -> dict:
    return json.loads(PIN_FILE.read_text())


def save(pins: dict) -> None:
    PIN_FILE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def agrees(pinned, measured) -> bool:
    """Floats agree to ``rel_tol=1e-9``; ints and strings are equal."""
    if isinstance(pinned, float):
        return math.isclose(measured, pinned, rel_tol=1e-9)
    return measured == pinned


def check(section: str, key: str, measured) -> None:
    """Assert ``measured`` equal to the pin ``section``/``key`` (or, while
    :data:`RECORD` is set, record it)."""
    if isinstance(measured, numbers.Integral):
        measured = int(measured)
    elif isinstance(measured, numbers.Real):
        measured = float(measured)
    sink = os.environ.get(RECORD)
    if sink:
        with open(sink, "a") as out:
            out.write(json.dumps([section, key, measured]) + "\n")
        return
    pinned = load()[section]
    assert key in pinned, f"{section} {key} = {measured!r} has no entry in {PIN_FILE.name}"
    assert agrees(pinned[key], measured), (
        f"{section} {key}: measured {measured!r}, pinned {pinned[key]!r} in "
        f"benchmarks/{PIN_FILE.name}; a change meant to move it re-records "
        f"every pin with `python3 benchmarks/repin.py`"
    )


def ledger_problems(pinned: dict, result: dict) -> list[str]:
    """What one ledger run's closing JSON object gets wrong against the
    pins of its workload; ``[]`` when it is correct and meets them all."""
    problems = [] if result["correct"] is True else ["the run is not correct"]
    for name, recorded in sorted(pinned.items()):
        value = result["metrics"][name]["value"]
        if name in CEILINGS:
            if value > math.ceil(recorded):
                problems.append(
                    f"{name} = {value!r} exceeds {math.ceil(recorded)} "
                    f"(recorded {recorded!r})"
                )
        elif not agrees(recorded, value):
            problems.append(f"{name} = {value!r}, pinned {recorded!r}")
    return problems


def pytest_collection_modifyitems(config, items):
    """Keep every test of a module that checks a pin, and each test marked
    ``smoke_seeds`` (its seeds are inputs: it runs, and is never re-pinned)."""
    pinned_modules = {item.module for item in items if "pin" in item.fixturenames}
    kept = [
        item for item in items
        if item.module in pinned_modules or item.get_closest_marker("smoke_seeds")
    ]
    config.hook.pytest_deselected(items=[i for i in items if i not in kept])
    items[:] = kept
