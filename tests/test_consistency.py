"""Cross-cutting consistency checks.

The optimizers annotate plans incrementally during search;
``estimate_plan_cost`` re-derives cost bottom-up from the same cost
model and statistics.  The two must agree exactly — any drift would
mean the search is optimizing a different objective than it reports.
Also checks that the engine's measured cardinalities equal the plan's
estimated ones when the estimator counts every cluster exactly.
"""

import pytest

from repro.api import Database
from repro.core import QueryPattern, get_optimizer
from repro.core.cost import CostModel
from repro.core.enumeration import EnumerationContext, estimate_plan_cost
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
