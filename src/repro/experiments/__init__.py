"""Experiment harness: regenerates every figure in the paper's evaluation.

* :mod:`repro.experiments.figure3` — overhead of the probabilistic
  selection algorithm vs. number of available replicas (Figure 3);
* :mod:`repro.experiments.figure4` — adaptivity of the probabilistic
  model: average number of replicas selected (Figure 4a) and observed
  timing-failure probability (Figure 4b) vs. client deadline, for
  P_c ∈ {0.9, 0.5} and LUI ∈ {2 s, 4 s};
* :mod:`repro.experiments.ablations` — the "other extensive experiments"
  the conclusion mentions (LUI, request delay, window size, staleness
  threshold) plus baseline and failure-injection studies;
* :mod:`repro.experiments.harness` / :mod:`repro.experiments.report` —
  shared runners and text-table formatting.

Each figure module is runnable: ``python -m repro.experiments.figure4``.
"""

from repro.experiments.harness import (
    Figure4Cell,
    SelectionOverheadResult,
    measure_selection_overhead,
    run_figure4_cell,
)
from repro.experiments.analysis import (
    client_consistency_report,
    message_profile,
    replica_load_report,
    selection_profile,
)
from repro.experiments.report import (
    format_series,
    format_table,
    save_results,
)
from repro.experiments.runner import (
    CellSpec,
    SweepProgress,
    resolve_jobs,
    run_cells,
)

__all__ = [
    "Figure4Cell",
    "SelectionOverheadResult",
    "measure_selection_overhead",
    "run_figure4_cell",
    "client_consistency_report",
    "message_profile",
    "replica_load_report",
    "selection_profile",
    "format_series",
    "format_table",
    "save_results",
    "CellSpec",
    "SweepProgress",
    "resolve_jobs",
    "run_cells",
]
