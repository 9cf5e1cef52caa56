"""Figure 7: DPAP-EB T_e sweep on the large (folded) data set.

On big data, plan quality dominates: evaluation cost falls rapidly as
T_e grows and flattens once the optimal plan is found, while
optimization time keeps rising — so "just use DPP" is the paper's
advice for expensive queries.
"""

import pytest

from benchmarks.conftest import FIGURE7_FOLDING, publish
from benchmarks.experiments import figure7


def test_figure7_summary(benchmark, setup):
    output = benchmark.pedantic(
        figure7, args=(setup,), kwargs={"folding": FIGURE7_FOLDING},
        rounds=1, iterations=1)
    publish("figure7", output.text)

    sweep = [row for row in output.rows
             if row["series"].startswith("DPAP-EB(")]
    fixed = {row["series"]: row for row in output.rows
             if not row["series"].startswith("DPAP-EB(")}

    # evaluation cost reaches the optimum by the largest T_e
    assert sweep[-1]["eval_sim"] == pytest.approx(
        fixed["DPP"]["eval_sim"], rel=0.05)
    # optimization effort grows along the sweep
    assert sweep[-1]["plans"] >= sweep[0]["plans"]
    # plan execution dominates optimization on large data: DPP's total
    # beats any bad early-T_e total unless T_e already found the optimum
    worst_sweep_eval = max(row["eval_sim"] for row in sweep)
    assert worst_sweep_eval >= fixed["DPP"]["eval_sim"]
