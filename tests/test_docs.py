"""Documents that describe what is: DESIGN.md's module map against the tree."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ENTRY = re.compile(r"^( {2,6})(\w+(?:\.py|/))(?:\s|$)")


def _module_map():
    """Paths (relative to ``src/repro``) named in DESIGN §3's code block."""
    text = (ROOT / "DESIGN.md").read_text()
    block = text.split("## 3. System inventory (module map)", 1)[1]
    block = block.split("```", 2)[1]
    paths, stack = set(), {}
    for line in block.splitlines():
        match = ENTRY.match(line)
        if match is None:
            continue
        depth, name = len(match.group(1)) // 2, match.group(2)
        parent = "".join(stack[d] for d in sorted(stack) if d < depth)
        if name.endswith("/"):
            stack = {d: n for d, n in stack.items() if d < depth}
            stack[depth] = name
        else:
            paths.add(parent + name)
    return paths


def test_design_module_map_matches_the_tree():
    on_disk = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if not path.name.startswith("__")
    }
    mapped = _module_map()
    missing = sorted(on_disk - mapped)
    assert not missing, f"modules missing from DESIGN.md §3: {missing}"
    # The map may also name a dunder module (handlers/__init__.py holds
    # the handler tables); whatever it names must exist.
    gone = sorted(p for p in mapped if not (PACKAGE / p).is_file())
    assert not gone, f"DESIGN.md §3 names modules that do not exist: {gone}"
