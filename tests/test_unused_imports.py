"""No module imports a name it never uses.

No linter runs over the tree, so this AST scan stands in for one: every
name an ``import`` binds must be read somewhere in the module — as a name,
the root of an attribute, a quoted annotation, or an entry of ``__all__``
(a re-export).  ``from __future__`` imports bind nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")


def _quoted_names(annotation):
    """Names read by the string constants inside an annotation."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def unused_imports(source):
    """``(line, name)`` for each imported name ``source`` never reads."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                n.value
                for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        for annotation in annotations:
            used.update(_quoted_names(annotation))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_what_it_does_not_use():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for tree in TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, f"unused imports: {found}"


def test_the_scan_sees_what_a_module_reads():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import TYPE_CHECKING, Optional, Sequence\n"
        "from a import b, c, d\n"
        "__all__ = ['c']\n"
        "def f(x: 'Optional[int]') -> Sequence: return os.sep + b\n"
    )
    assert unused_imports(source) == [(2, "osp"), (3, "TYPE_CHECKING"), (4, "d")]
