"""Table 3: plan evaluation cost vs. data size (folding factor).

Benchmarks the evaluation of each algorithm's chosen plan per folding
factor, prints the rendered Table 3, and asserts the paper's Sec. 4.3
findings: optimization time stays flat while evaluation grows, the
optimal plan turns fully-pipelined at scale, and DPAP-LD's gap widens.
"""

import pytest

from benchmarks.conftest import FOLDINGS, publish
from repro.bench.experiments import table3
from repro.bench.harness import dataset_database, plan_cell
from repro.workloads.queries import paper_query

QUERY = "Q.Pers.3.d"


@pytest.mark.parametrize("folding", FOLDINGS)
@pytest.mark.parametrize("algorithm", ("DPP", "DPAP-LD", "FP"))
def test_evaluate_plan(benchmark, setup, algorithm, folding):
    database = dataset_database("pers", setup, folding=folding)
    query = paper_query(QUERY)
    optimization = plan_cell(database, query.pattern, algorithm)

    execution = benchmark.pedantic(
        database.execute, args=(optimization.plan, query.pattern),
        rounds=1, iterations=1)
    benchmark.extra_info["eval_simulated"] = (
        execution.metrics.simulated_cost())
    benchmark.extra_info["results"] = len(execution)


def test_table3_summary(benchmark, setup):
    output = benchmark.pedantic(table3, args=(setup,),
                                kwargs={"foldings": FOLDINGS},
                                rounds=1, iterations=1)
    publish("table3", output.text)

    def series(algorithm, key="eval_sim"):
        return {row["folding"]: row[key] for row in output.rows
                if row["algorithm"] == algorithm}

    largest = FOLDINGS[-1]
    # evaluation grows with data, optimization does not
    assert series("DPP")[largest] > series("DPP")[1]
    opt = series("DPP", "opt_ms")
    assert opt[largest] < 25 * max(opt[1], 0.5)
    # at scale the optimum is the fully-pipelined plan (FP == DPP)
    dpp_final = next(row for row in output.rows
                     if row["algorithm"] == "DPP"
                     and row["folding"] == largest)
    assert dpp_final["fully_pipelined"]
    assert series("FP")[largest] == pytest.approx(
        series("DPP")[largest], rel=0.05)
    # the gap between the left-deep plan and the best plan widens with
    # data size (Sec. 4.3) — measured as the absolute cost gap; at our
    # small base size the optimum is already a (blocking) bushy plan,
    # so unlike the paper the relative gap does not start at 1.0
    ld_gap_small = series("DPAP-LD")[1] - series("DPP")[1]
    ld_gap_large = series("DPAP-LD")[largest] - series("DPP")[largest]
    assert ld_gap_large > ld_gap_small
    assert series("bad")[largest] > 5 * series("DPP")[largest]
