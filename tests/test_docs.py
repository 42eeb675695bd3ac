"""Documents that describe what is: DESIGN.md's module map against the tree."""

import json
import re
from pathlib import Path

from repro.cli import COMMANDS

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


DOCUMENTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
#: Named in the documents, written by a run, git-ignored.
GENERATED = {"benchmarks/results.txt"}
PATH_REF = re.compile(
    r"(?<![\w/.-])((?:benchmarks|tests|examples|src/repro)/[\w./*{},-]*)"
)
TEST_FILE_REF = re.compile(r"(?<![\w/{},*-])(test_\w+\.py)")
COMMAND_REF = re.compile(r"(?:`|-m )repro ([a-z][a-z0-9-]*)")
#: ``test_{overload,gray}.py`` is checked as the glob ``test_*.py``.
BRACES = re.compile(r"\{[^{}]*\}")


def test_documents_name_only_paths_and_commands_that_exist():
    test_files = {
        path.name
        for tree in ("tests", "benchmarks")
        for path in (ROOT / tree).rglob("test_*.py")
    }
    dangling = []
    for document in DOCUMENTS:
        text = (ROOT / document).read_text()
        for reference in set(PATH_REF.findall(text)):
            reference = reference.rstrip("./,")
            if reference not in GENERATED and not any(
                ROOT.glob(BRACES.sub("*", reference))
            ):
                dangling.append(f"{document}: {reference}")
        dangling += [
            f"{document}: {name}"
            for name in set(TEST_FILE_REF.findall(text)) - test_files
        ]
        dangling += [
            f"{document}: repro {command}"
            for command in set(COMMAND_REF.findall(text)) - set(COMMANDS)
        ]
    assert not dangling, f"documents name what does not exist: {sorted(dangling)}"


def test_experiments_figure4b_sums_to_the_pinned_failure_counts():
    """EXPERIMENTS.md's Figure 4(b) table and ``benchmarks/seeded_results.json``
    are one seeded sweep: each column's probabilities x 500 reads add up to
    the failure count the Figure 4 bench asserts."""
    reads = 500
    pins = json.loads((ROOT / "benchmarks" / "seeded_results.json").read_text())
    section = (ROOT / "EXPERIMENTS.md").read_text().split("## Figure 4(b)", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ]
    header, body = rows[0], rows[2:]
    assert len(body) == 8, "one row per deadline of the sweep"
    for column, title in enumerate(header[1:], start=1):
        probability, lui = re.fullmatch(r"([\d.]+) / (\d+) s", title).groups()
        failures = sum(round(float(row[column]) * reads) for row in body)
        assert failures == pins[f"failures_pc{probability}_lui{lui}"], title
