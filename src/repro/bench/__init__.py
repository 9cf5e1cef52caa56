"""Experiment drivers reproducing the paper's tables and figures.

Each function in :mod:`repro.bench.experiments` regenerates one
artifact of Sec. 4 (Table 1, Table 2, Table 3, Figure 7, Figure 8) as
structured rows plus an ASCII rendering in the paper's layout.  The
``benchmarks/`` directory wraps these in pytest-benchmark targets; the
``examples/reproduce_paper.py`` script runs them all and prints the
tables.
"""

from repro.bench.harness import (CellResult, ExperimentSetup, eval_bad_plan,
                                 paper_estimator, plan_cell, run_cell)
from repro.bench.tables import render_table
from repro.bench.experiments import (figure7, figure8, table1, table2,
                                     table3)

__all__ = [
    "CellResult",
    "ExperimentSetup",
    "eval_bad_plan",
    "paper_estimator",
    "plan_cell",
    "run_cell",
    "render_table",
    "table1",
    "table2",
    "table3",
    "figure7",
    "figure8",
]
