"""``repro info``: reproduction summary and module inventory."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

SUBSYSTEMS = (
    ("repro.sim", "deterministic discrete-event simulation kernel"),
    ("repro.net", "simulated LAN: latency models, crashes, partitions"),
    ("repro.groups", "group communication (views, leader, reliable FIFO)"),
    ("repro.stats", "pmfs/convolution, Poisson CDF, binomial CIs"),
    ("repro.core", "the paper's middleware: QoS model, sequential/FIFO/"
                   "causal handlers, probabilistic selection (Algorithm 1)"),
    ("repro.baselines", "naive selection strategies for comparison"),
    ("repro.apps", "KV store, shared document, stock ticker"),
    ("repro.workloads", "closed-loop §6 clients, open-loop generators, "
                        "aggregated fluid client tier"),
    ("repro.obs", "telemetry: metrics registry, span trees, calibration"),
    ("repro.experiments", "figure/ablation/validation harnesses"),
)


def main(argv: Optional[list[str]] = None, prog: Optional[str] = None) -> int:
    import repro

    argparse.ArgumentParser(prog=prog, description=__doc__).parse_args(argv)
    print(f"repro {repro.__version__} — reproduction of:")
    print("  Krishnamurthy, Sanders, Cukier: 'An Adaptive Framework for")
    print("  Tunable Consistency and Timeliness Using Replication' (DSN 2002)")
    print()
    print("subsystems:")
    for module, summary in SUBSYSTEMS:
        print(f"  {module:20s} {summary}")
    print()
    print("see DESIGN.md for the experiment index and EXPERIMENTS.md for")
    print("paper-vs-measured results.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
