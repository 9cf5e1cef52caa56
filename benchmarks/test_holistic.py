"""Extension bench: holistic twig join vs optimized binary-join plans.

The paper's Sec. 6 names multi-way structural joins (TwigStack) as
future work for the optimizer.  This bench quantifies the comparison
the authors anticipated: a single holistic operator needs no join-order
decision at all, while the binary-join engine depends on DPP picking a
good order — and both pay very different buffering costs.
"""

import pytest

from benchmarks.conftest import database_for, publish
from repro.bench.harness import plan_cell
from repro.bench.tables import render_table
from repro.workloads.queries import PAPER_QUERIES, paper_query

QUERIES = ("Q.Pers.1.a", "Q.Pers.2.c", "Q.Pers.3.d", "Q.Mbench.1.a",
           "Q.DBLP.1.b")


@pytest.mark.parametrize("query_name", QUERIES)
def test_holistic_evaluation(benchmark, setup, query_name):
    query = paper_query(query_name)
    database = database_for(query.dataset, setup)

    result = benchmark(database.holistic_query, query.pattern)
    benchmark.extra_info["matches"] = len(result)
    benchmark.extra_info["stack_ops"] = result.metrics.stack_tuple_ops


def test_holistic_vs_binary_summary(benchmark, setup):
    def run():
        rows = []
        for query_name in QUERIES:
            query = paper_query(query_name)
            database = database_for(query.dataset, setup)
            binary = database.execute(
                plan_cell(database, query.pattern).plan, query.pattern)
            holistic = database.holistic_query(query.pattern)
            assert holistic.canonical() == binary.canonical()
            rows.append({
                "query": query_name,
                "binary_sim": binary.metrics.simulated_cost(),
                "holistic_sim": holistic.metrics.simulated_cost(),
                "binary_ms": binary.metrics.wall_seconds * 1e3,
                "holistic_ms": holistic.metrics.wall_seconds * 1e3,
                "matches": len(holistic),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table(
        "Extension: optimized binary joins (DPP) vs holistic TwigStack",
        ["Query", "binary eval(sim)", "holistic eval(sim)",
         "binary ms", "holistic ms", "matches"],
        [[r["query"], r["binary_sim"], r["holistic_sim"],
          r["binary_ms"], r["holistic_ms"], r["matches"]]
         for r in rows],
        note=("Same result sets; holistic buffers per-leaf path "
              "solutions instead of intermediate join results."))
    publish("extension_holistic", text)
