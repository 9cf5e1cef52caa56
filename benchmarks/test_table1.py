"""Table 1: optimization + evaluation time, 8 queries x 5 algorithms.

Two layers:

* per-cell optimizer micro-benchmarks (``test_optimize``) — the paper's
  **Opt.** columns, measured properly by pytest-benchmark;
* one full-table run (``test_table1_summary``) that executes every
  chosen plan, prints the rendered Table 1 and stores it under
  ``benchmarks/results/table1.txt``.
"""

import pytest

from benchmarks.conftest import database_for, publish
from repro.bench.experiments import ALGORITHMS, table1
from repro.bench.harness import paper_estimator, plan_cell
from repro.workloads.queries import PAPER_QUERIES, paper_query

QUERIES = sorted(PAPER_QUERIES)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("query_name", QUERIES)
def test_optimize(benchmark, setup, query_name, algorithm):
    query = paper_query(query_name)
    database = database_for(query.dataset, setup)
    estimator = paper_estimator(database)
    options = {}
    if algorithm == "DPAP-EB":
        options["expansion_bound"] = len(query.pattern.edges)

    result = benchmark(plan_cell, database, query.pattern, algorithm,
                       estimator, **options)
    benchmark.extra_info["estimated_cost"] = result.estimated_cost
    benchmark.extra_info["plans_considered"] = (
        result.report.plans_considered)
    benchmark.extra_info["fully_pipelined"] = (
        result.plan.is_fully_pipelined)


def test_table1_summary(benchmark, setup):
    output = benchmark.pedantic(table1, args=(setup,), rounds=1,
                                iterations=1)
    publish("table1", output.text)
    # headline shape: DP and DPP pick equally good plans everywhere
    for row in output.rows:
        assert row["DP.eval_sim"] == pytest.approx(row["DPP.eval_sim"],
                                                   rel=0.01)
        assert row["bad.eval_sim"] > row["DPP.eval_sim"]
