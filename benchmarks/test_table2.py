"""Table 2: optimization time and plans considered (Q.Pers.3.d).

Benchmarks each of the six algorithm variants (including DPP', the
no-lookahead DPP) on the paper's reference query, then prints the
rendered Table 2 and asserts the paper's ordering of the search sizes.
"""

import pytest

from benchmarks.conftest import publish
from repro.bench.experiments import TABLE2_ALGORITHMS, table2
from repro.bench.harness import paper_estimator, plan_cell
from repro.workloads.queries import paper_query

QUERY = "Q.Pers.3.d"


@pytest.mark.parametrize("algorithm", TABLE2_ALGORITHMS)
def test_optimize_variants(benchmark, pers_db, algorithm):
    query = paper_query(QUERY)
    estimator = paper_estimator(pers_db)
    options = {}
    if algorithm == "DPAP-EB":
        options["expansion_bound"] = len(query.pattern.edges)
    result = benchmark(plan_cell, pers_db, query.pattern, algorithm,
                       estimator, **options)
    benchmark.extra_info["plans"] = (
        result.report.alternatives_considered)
    benchmark.extra_info["moves_costed"] = result.report.plans_considered
    benchmark.extra_info["statuses_expanded"] = (
        result.report.statuses_expanded)


def test_table2_summary(benchmark, setup):
    output = benchmark.pedantic(table2, args=(setup,), rounds=1,
                                iterations=1)
    publish("table2", output.text)
    plans = {row["algorithm"]: row["plans"] for row in output.rows}
    # the paper's ordering: DP > DPP' > DPP > {DPAP} > FP
    assert plans["DP"] > plans["DPP"]
    assert plans["DPP'"] > plans["DPP"]
    assert plans["DPP"] > plans["DPAP-EB"]
    assert plans["DPP"] > plans["DPAP-LD"]
    assert plans["DPP"] > plans["FP"]
