"""Tests for the dot exporters."""

import pytest

from repro.core.dpp import DPPOptimizer
from repro.core.planspace import PlanSpaceRecorder
from repro.core.viz import plan_to_dot, trace_to_dot
from repro.estimation.estimator import ExactEstimator


@pytest.fixture
def optimized(small_database, running_example_pattern):
    return small_database.optimize(running_example_pattern,
                                   algorithm="DPP")


class TestPlanToDot:
    def test_structure(self, optimized, running_example_pattern):
        dot = plan_to_dot(optimized.plan, running_example_pattern)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        # 6 scans + 5 joins (+ sorts) => at least 11 nodes
        assert dot.count("[label=") >= 11
        # a node is named by the plan's one label, as explain() names it
        assert "IndexScan($0:manager)" in dot
        for node in optimized.plan.walk():
            assert node.label(running_example_pattern) in dot
        assert "->" in dot

    def test_sorts_highlighted(self, small_database,
                               running_example_pattern):
        result = small_database.optimize(running_example_pattern,
                                         algorithm="DPP")
        dot = plan_to_dot(result.plan)
        if result.plan.sort_count():
            assert "fillcolor" in dot

    def test_escaping(self, small_database):
        pattern = small_database.compile("//name[text() = 'Ada\"s']")
        result = small_database.optimize(pattern)
        dot = plan_to_dot(result.plan, pattern)
        assert '\\"' in dot

    def test_cardinalities_present(self, optimized):
        dot = plan_to_dot(optimized.plan)
        assert "card=" in dot
        assert "cost=" in dot


class TestTraceToDot:
    def test_search_graph(self, small_document, running_example_pattern):
        trace = PlanSpaceRecorder()
        DPPOptimizer(planspace=trace).optimize(
            running_example_pattern, ExactEstimator(small_document))
        dot = trace_to_dot(trace)
        assert dot.startswith("digraph")
        assert "s0 [" in dot
        # every generated status appears as a node
        assert dot.count("[label=") == trace.status_count()
        # finals highlighted
        assert "#eeffee" in dot
        # expanded statuses get a double border
        assert "peripheries=2" in dot
        assert "->" in dot
