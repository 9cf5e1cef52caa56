"""Figure 8: DPAP-EB T_e sweep on the small (unfolded) data set.

On small data, optimization time is a significant share of the total;
the paper's point is that FP wins the total-time race and the DPAP-EB
curve is "U"-shaped in total evaluation time.
"""

import pytest

from benchmarks.conftest import publish
from benchmarks.experiments import figure8


def test_figure8_summary(benchmark, setup):
    output = benchmark.pedantic(figure8, args=(setup,), rounds=1,
                                iterations=1)
    publish("figure8", output.text)

    fixed = {row["series"]: row for row in output.rows
             if not row["series"].startswith("DPAP-EB(")}
    # FP is the fastest optimizer
    assert fixed["FP"]["opt_ms"] <= fixed["DPP"]["opt_ms"]
    assert fixed["FP"]["opt_ms"] <= fixed["DP"]["opt_ms"]
    # and its plan is within a small factor of optimal
    assert fixed["FP"]["eval_sim"] <= 5 * fixed["DPP"]["eval_sim"]

    sweep = [row for row in output.rows
             if row["series"].startswith("DPAP-EB(")]
    # optimization time rises along the sweep (monotone-ish)
    assert sweep[-1]["opt_ms"] >= sweep[0]["opt_ms"] * 0.8
