"""Experiment runners: one per table and figure of the paper.

- :mod:`repro.experiments.table1` — per-operation message costs.
- :mod:`repro.experiments.figures` — Figures 5-14 (messages and data per
  application across page sizes) plus the Figure 3/4 lock-chain scenario.
- :mod:`repro.experiments.ablation` — design-choice ablations beyond the
  paper (diff-vs-page misses, piggybacking, ack counting, false-sharing
  sweep).
- :mod:`repro.experiments.claims` — the paper's claims about all of the
  above, each written once and judged on evidence those runners build.
"""

from repro.experiments.table1 import Table1Row, run_table1
from repro.experiments.figures import (
    FIGURES,
    FigureSpec,
    expected_shapes,
    run_figure,
    run_lock_chain,
)
from repro.experiments.ablation import (
    run_ack_ablation,
    run_diff_ablation,
    run_false_sharing_sweep,
    run_piggyback_ablation,
)
from repro.experiments.export import export_all, export_sweep_csv, export_table1_csv

__all__ = [
    "export_all",
    "export_sweep_csv",
    "export_table1_csv",
    "Table1Row",
    "run_table1",
    "FIGURES",
    "FigureSpec",
    "expected_shapes",
    "run_figure",
    "run_lock_chain",
    "run_ack_ablation",
    "run_diff_ablation",
    "run_false_sharing_sweep",
    "run_piggyback_ablation",
]
