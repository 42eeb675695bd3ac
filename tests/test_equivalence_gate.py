"""Self-test of the equivalence gate (``benchmarks/equivalence.py``) on its
small panel: a pure re-seed of this tree passes, and the A9 mutant fails.

The full panel is one command of ≈ 7 min on two cores; this runs the small
panel twice, two workers side by side, in ≈ 20 s.
"""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "equivalence", ROOT / "benchmarks" / "equivalence.py"
)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def _run(tmp_path, *extra):
    report = tmp_path / "report.md"
    code = gate.main([
        "--parent", str(ROOT), "--change", str(ROOT), "--panel", "small",
        "--report", str(report), *extra,
    ])
    return code, report.read_text()


def test_gate_passes_a_pure_reseed_and_fails_the_a9_mutant(tmp_path):
    """Kills a gate that always passes (the ``correlated-deferral`` mutant,
    which makes A9's Eq. 3 cell correlation-aware on the change side only,
    must fail it on that row) and a gate that always fails (the same code
    with the change side's seeds moved on must pass)."""
    code, text = _run(tmp_path, "--change-seed-offset", "5000")
    assert code == 0, text
    assert "**PASS**" in text

    code, text = _run(tmp_path, "--change-mutant", "correlated-deferral")
    assert code == 1, text
    failing = [line for line in text.splitlines() if line.endswith("| **no** |")]
    assert any(line.startswith("| A9 Eq. 3 independent: P(fail) |") for line in failing)
    assert not any("correlation-aware" in line for line in failing)


def test_student_t_agrees_only_on_equal_constant_rows():
    """Kills a t test that divides by a zero spread: two constant sides
    agree when equal and disagree when not."""
    assert gate.student_t([1.0, 1.0], [1.0, 1.0]) == (0.0, 1.0)
    t, p = gate.student_t([1.0, 1.0], [2.0, 2.0])
    assert p == 0.0 and math.isinf(t)
    t, p = gate.student_t([1.0, 2.0, 3.0], [1.5, 2.5, 3.5])
    assert 0.5 < p < 1.0 and t > 0
