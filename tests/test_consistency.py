"""Cross-cutting consistency checks.

The optimizers annotate plans incrementally during search;
``estimate_plan_cost`` re-derives cost bottom-up from the same cost
model and statistics.  The two must agree exactly — any drift would
mean the search is optimizing a different objective than it reports.
Also checks that the engine's measured cardinalities equal the plan's
estimated ones when the estimator counts every cluster exactly, and
that the price then differs from the measured work in one named term.
"""

import pytest

from repro.api import Database
from repro.core import QueryPattern, get_optimizer
from repro.core.cost import CostModel
from repro.core.enumeration import (EnumerationContext, estimate_plan_cost,
                                    plan_cost_by_family)
from repro.core.plans import StructuralJoinPlan
from repro.estimation.estimator import ExactEstimator
from repro.workloads import personnel_document

ALGORITHMS = ("DP", "DPP", "DPP'", "DPAP-EB", "DPAP-LD", "FP")

PATTERNS = [
    {"nodes": ["manager", "employee"], "edges": [(0, 1, "//")]},
    {"nodes": ["manager", "employee", "name"],
     "edges": [(0, 1, "//"), (1, 2, "/")]},
    {"nodes": ["manager", "employee", "name", "department"],
     "edges": [(0, 1, "//"), (1, 2, "/"), (0, 3, "//")]},
    {"nodes": ["manager", "employee", "name", "manager", "department",
               "name"],
     "edges": [(0, 1, "//"), (1, 2, "/"), (0, 3, "//"), (3, 4, "/"),
               (4, 5, "/")]},
]


@pytest.fixture(scope="module")
def database():
    return Database.from_document(personnel_document(target_nodes=600))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("spec", PATTERNS,
                         ids=[f"p{i}" for i in range(len(PATTERNS))])
def test_reported_cost_matches_replayed_cost(database, algorithm, spec):
    pattern = QueryPattern.build(spec)
    estimator = ExactEstimator(database.document)
    result = get_optimizer(algorithm).optimize(pattern, estimator)
    context = EnumerationContext(pattern, CostModel(), estimator)
    replayed = estimate_plan_cost(result.plan, context)
    # order_by-free final sorts never appear, so replay must be exact
    assert replayed == pytest.approx(result.estimated_cost)


@pytest.mark.parametrize("spec", PATTERNS,
                         ids=[f"p{i}" for i in range(len(PATTERNS))])
def test_exact_estimates_match_measured_cardinalities(database, spec):
    """With true counts, every join of every algorithm's plan — the
    connected sub-pattern it builds — estimates the row count the
    engine produces for it."""
    pattern = QueryPattern.build(spec)
    estimator = ExactEstimator(database.document)
    for algorithm in ALGORITHMS:
        result = get_optimizer(algorithm).optimize(pattern, estimator)
        joins = [node for node in result.plan.walk()
                 if isinstance(node, StructuralJoinPlan)]
        assert len(joins) == len(pattern.edges)
        for node in joins:
            assert len(database.execute(node, pattern)) == \
                node.estimated_cardinality, (algorithm, node)
        assert len(database.execute(result.plan, pattern)) > 0


def test_simulated_cost_tracks_estimates_loosely(database):
    """Measured engine work should land within an order of magnitude
    of the optimizer's estimate when every cluster is priced at its
    true count."""
    pattern = QueryPattern.build(PATTERNS[2])
    result = get_optimizer("DPP").optimize(
        pattern, ExactEstimator(database.document))
    execution = database.execute(result.plan, pattern)
    measured = execution.metrics.simulated_cost()
    estimated = result.estimated_cost
    assert estimated / 10 <= measured <= estimated * 10


def _skipped_ancestor_tuples(database, plan, pattern):
    """Over *plan*'s joins, the ancestor tuples that start at or after
    the join's last descendant start, read off each join's executed
    inputs: the Stack-Tree joins stop there, so nothing pushes them."""
    skipped = 0
    for join in plan.walk():
        if not isinstance(join, StructuralJoinPlan):
            continue
        ancestors = database.execute(join.ancestor_plan,
                                     pattern).bindings()
        descendants = database.execute(join.descendant_plan,
                                       pattern).bindings()
        last = max((binding[join.descendant_node].start
                    for binding in descendants), default=-1)
        skipped += sum(1 for binding in ancestors
                       if binding[join.ancestor_node].start >= last)
    return skipped


@pytest.mark.parametrize("spec", PATTERNS,
                         ids=[f"p{i}" for i in range(len(PATTERNS))])
def test_price_and_measure_differ_by_the_skipped_stack_pushes(database,
                                                               spec):
    """On true counts each cost family's price is its measured counter
    term, except ``f_stack``: the Sec. 2.2.2 formula charges ``2|A|``
    per join, while the engine never pushes an ancestor tuple that
    starts at or after the join's last descendant — which happens
    where a pattern repeats a tag."""
    pattern = QueryPattern.build(spec)
    estimator = ExactEstimator(database.document)
    for algorithm in ALGORITHMS:
        result = get_optimizer(algorithm).optimize(pattern, estimator)
        context = EnumerationContext(pattern, database.cost_model,
                                     estimator)
        __, priced = plan_cost_by_family(result.plan, context)
        metrics = database.execute(result.plan, pattern).metrics
        factors = metrics.factors
        measured = {
            "f_index": factors.f_index * metrics.index_items,
            "f_sort": factors.f_sort * metrics.sort_units,
            "f_io": factors.f_io * 2.0 * metrics.buffered_results,
            "f_stack": factors.f_stack * 2.0 * metrics.stack_tuple_ops,
        }
        for family in ("f_index", "f_sort", "f_io"):
            assert priced[family] == measured[family], (algorithm, family)
        skipped = _skipped_ancestor_tuples(database, result.plan, pattern)
        assert priced["f_stack"] - measured["f_stack"] == \
            2.0 * factors.f_stack * skipped, (algorithm, skipped)
