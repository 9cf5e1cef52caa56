"""Extension bench: first-result latency (the FP motivation, Sec. 3.4).

"Fully-pipelined plans have the property of producing the initial
result tuples quickly, which is desirable in many applications, such
as online querying on XML data sources."  This bench quantifies it:
the FP plan's first tuple vs the optimal (possibly blocking) plan's
first tuple, on folded data where the difference is macroscopic.
"""

import pytest

from benchmarks.conftest import publish
from benchmarks.harness import dataset_database, plan_cell
from benchmarks.tables import render_table
from repro.engine.context import EngineContext
from repro.engine.executor import Executor
from repro.workloads.queries import paper_query

# At base scale the DPP optimum for this query is a *blocking* bushy
# plan (2 sorts) while FP streams — exactly the online-querying
# trade-off; at large foldings every algorithm converges on pipelined
# plans and the contrast disappears (see Table 3).
QUERY = "Q.Pers.2.c"
FOLDING = 1


def test_first_result_latency(benchmark, setup):
    def run():
        database = dataset_database("pers", setup, folding=FOLDING)
        query = paper_query(QUERY)
        rows = []
        for algorithm in ("DPP", "DPAP-LD", "FP"):
            optimization = plan_cell(database, query.pattern,
                                     algorithm)
            executor = Executor(
                EngineContext(database.index, database.store,
                              database.document,
                              factors=database.cost_factors),
                query.pattern)
            timing = executor.time_to_first(optimization.plan)
            rows.append({
                "algorithm": algorithm,
                "first_ms": timing.first_seconds * 1e3,
                "total_ms": timing.total_seconds * 1e3,
                "pipelined": optimization.plan.is_fully_pipelined,
                "results": timing.total_count,
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table(
        f"Extension: time to first result ({QUERY}, folding x{FOLDING})",
        ["Algorithm", "first tuple (ms)", "full run (ms)", "pipelined"],
        [[r["algorithm"], r["first_ms"], r["total_ms"], r["pipelined"]]
         for r in rows])
    publish("extension_online", text)

    by_algorithm = {r["algorithm"]: r for r in rows}
    fp = by_algorithm["FP"]
    assert fp["pipelined"]
    # FP's first tuple arrives in a small fraction of its full run ...
    assert fp["first_ms"] < 0.6 * fp["total_ms"]
    # ... and before the first tuple of every plan that has to sort
    blocking = [row for row in rows if not row["pipelined"]]
    assert blocking, "expected at least one blocking plan at this scale"
    for row in blocking:
        assert fp["first_ms"] < row["first_ms"], row["algorithm"]
    # the optimum sorts twice: most of its runtime is before tuple #1
    # (a plan may block on less -- DPAP-LD's sorts one small inner
    # input -- so the bound is the optimum's, not every blocking plan's)
    dpp = by_algorithm["DPP"]
    assert not dpp["pipelined"]
    assert dpp["first_ms"] > 0.4 * dpp["total_ms"]
