"""Command-line interface: ``python -m repro <command> [options]``.

A dispatch table, not a second parser: every command is a module with a
``main(argv, prog)`` that declares its own flags, and ``repro <command>``
forwards the rest of the command line to it untouched
(``repro <command> --help`` lists that command's options).  ``--quick``
runs reduced sweeps everywhere it is meaningful.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Optional

#: ``command -> (module with main(argv, prog), one-line help)``.
COMMANDS: dict[str, tuple[str, str]] = {
    "figure3": ("repro.experiments.figure3", "selection overhead (Figure 3)"),
    "figure4": ("repro.experiments.figure4", "adaptivity sweep (Figure 4)"),
    "ablations": ("repro.experiments.ablations", "A1-A9 parameter studies"),
    "validation": (
        "repro.experiments.validation", "model calibration + hot spots",
    ),
    "chaos": (
        "repro.experiments.chaos",
        "seeded fault campaigns + consistency invariants",
    ),
    "overload": (
        "repro.experiments.overload",
        "load storms: shedding ladder vs. unbounded queues",
    ),
    "adaptive": (
        "repro.experiments.adaptive",
        "closed-loop SLA guardian vs. static knob grid",
    ),
    "gray": (
        "repro.experiments.gray",
        "gray failures: φ-accrual detector vs. fixed timeouts",
    ),
    "metrics": (
        "repro.experiments.telemetry",
        "instrumented cell: telemetry + calibration report",
    ),
    "dash": (
        "repro.experiments.dashboard",
        "sparkline/SLO dashboard over a timeline artifact",
    ),
    "speedup": (
        "repro.experiments.speedup",
        "parallel runner throughput per --jobs level",
    ),
    "scale": (
        "repro.experiments.scale",
        "million-user cells via the aggregated client tier",
    ),
    "info": ("repro.info", "reproduction summary"),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: it only picks the command."""
    width = max(len(name) for name in COMMANDS)
    parser = argparse.ArgumentParser(
        prog="repro",
        usage="repro <command> [options]",
        description="Regenerate the paper's figures and studies.",
        epilog="commands:\n"
        + "\n".join(
            f"  {name:<{width}}  {summary}"
            for name, (_, summary) in COMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=COMMANDS, metavar="command", help=argparse.SUPPRESS
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = build_parser().parse_args(argv[:1]).command
    module = importlib.import_module(COMMANDS[command][0])
    return module.main(argv[1:], prog=f"repro {command}") or 0


if __name__ == "__main__":
    sys.exit(main())
