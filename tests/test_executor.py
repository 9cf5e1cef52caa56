"""End-to-end plan execution tests."""

import pytest

from repro.errors import PlanError
from repro.api import Database
from repro.core.pattern import Axis
from repro.core.plans import (IndexScanPlan, JoinAlgorithm, PhysicalPlan,
                              SortPlan, StructuralJoinPlan)
from repro.engine.context import EngineContext
from repro.engine.executor import Executor, _operator_children
from repro.engine.nestedloop import naive_pattern_matches


@pytest.fixture
def setup(small_document, running_example_pattern):
    database = Database.from_document(small_document)
    context = EngineContext(database.index, small_document)
    return Executor(context, running_example_pattern), small_document


def fully_pipelined_plan() -> PhysicalPlan:
    """Hand-built FP plan for the running example, ordered by node 0."""
    left = StructuralJoinPlan(
        IndexScanPlan(1), IndexScanPlan(2), 1, 2, Axis.CHILD,
        JoinAlgorithm.STACK_TREE_ANC)           # ordered by 1
    right_inner = StructuralJoinPlan(
        IndexScanPlan(4), IndexScanPlan(5), 4, 5, Axis.CHILD,
        JoinAlgorithm.STACK_TREE_ANC)           # ordered by 4
    right = StructuralJoinPlan(
        IndexScanPlan(3), right_inner, 3, 4, Axis.CHILD,
        JoinAlgorithm.STACK_TREE_ANC)           # ordered by 3
    step1 = StructuralJoinPlan(
        IndexScanPlan(0), left, 0, 1, Axis.DESCENDANT,
        JoinAlgorithm.STACK_TREE_ANC)           # ordered by 0
    return StructuralJoinPlan(
        step1, right, 0, 3, Axis.DESCENDANT,
        JoinAlgorithm.STACK_TREE_ANC)           # ordered by 0


def blocking_plan() -> PhysicalPlan:
    """Left-deep plan with explicit sorts, same result set."""
    step1 = StructuralJoinPlan(
        IndexScanPlan(0), IndexScanPlan(1), 0, 1, Axis.DESCENDANT,
        JoinAlgorithm.STACK_TREE_DESC)          # ordered by 1
    step2 = StructuralJoinPlan(
        step1, IndexScanPlan(2), 1, 2, Axis.CHILD,
        JoinAlgorithm.STACK_TREE_DESC)          # ordered by 2
    step3 = StructuralJoinPlan(
        SortPlan(step2, 0), IndexScanPlan(3), 0, 3, Axis.DESCENDANT,
        JoinAlgorithm.STACK_TREE_DESC)          # ordered by 3
    step4 = StructuralJoinPlan(
        step3, IndexScanPlan(4), 3, 4, Axis.CHILD,
        JoinAlgorithm.STACK_TREE_DESC)          # ordered by 4
    return StructuralJoinPlan(
        step4, IndexScanPlan(5), 4, 5, Axis.CHILD,
        JoinAlgorithm.STACK_TREE_DESC)          # ordered by 5


class TestExecution:
    def test_fp_plan_matches_oracle(self, setup, running_example_pattern):
        executor, document = setup
        result = executor.execute(fully_pipelined_plan())
        oracle = naive_pattern_matches(document, running_example_pattern)
        expected = {tuple(b[k].start for k in sorted(b)) for b in oracle}
        assert result.canonical() == expected
        assert len(result) == len(oracle)

    def test_blocking_plan_same_results(self, setup,
                                        running_example_pattern):
        executor, document = setup
        fp_result = executor.execute(fully_pipelined_plan())
        blocking_result = executor.execute(blocking_plan())
        assert fp_result.canonical() == blocking_result.canonical()

    def test_metrics_reflect_plan_shape(self, setup):
        executor, __ = setup
        fp_metrics = executor.execute(fully_pipelined_plan()).metrics
        blocking_metrics = executor.execute(blocking_plan()).metrics
        assert fp_metrics.sort_count == 0
        assert blocking_metrics.sort_count == 1
        assert fp_metrics.buffered_results > 0    # STA joins buffer
        assert blocking_metrics.buffered_results == 0
        assert fp_metrics.join_count == 5
        assert blocking_metrics.join_count == 5

    def test_simulated_cost_positive_and_composed(self, setup):
        executor, __ = setup
        metrics = executor.execute(fully_pipelined_plan()).metrics
        assert metrics.simulated_cost() > 0
        assert metrics.index_items > 0
        assert metrics.wall_seconds > 0

    def test_bindings_view(self, setup):
        executor, __ = setup
        result = executor.execute(fully_pipelined_plan())
        bindings = result.bindings()
        assert len(bindings) == len(result)
        assert set(bindings[0].keys()) == set(range(6))

    def test_metrics_reset_between_runs(self, setup):
        executor, __ = setup
        first = executor.execute(fully_pipelined_plan()).metrics
        second = executor.execute(fully_pipelined_plan()).metrics
        assert second.index_items == first.index_items

    def test_unknown_plan_node_rejected(self, setup):
        executor, __ = setup

        class Strange(PhysicalPlan):
            def pattern_nodes(self):
                return frozenset({0})

        with pytest.raises(PlanError, match="unknown plan node"):
            executor.build(Strange(0))

    @pytest.mark.parametrize("engine", ["block", "tuple"])
    def test_operators_lay_rows_out_as_the_plan_says(self, setup, engine):
        """``PhysicalPlan.output_nodes`` is the column layout a shard
        fleet reads before any worker has answered: every operator
        either engine builds lays its rows out so."""
        executor, __ = setup
        departments = StructuralJoinPlan(
            IndexScanPlan(3), IndexScanPlan(4), 3, 4, Axis.CHILD,
            JoinAlgorithm.STACK_TREE_DESC)      # ordered by 4
        nested = StructuralJoinPlan(
            IndexScanPlan(0), SortPlan(departments, 3), 0, 3,
            Axis.DESCENDANT, JoinAlgorithm.NESTED_LOOP)
        for plan in (fully_pipelined_plan(), blocking_plan(), nested):
            pairs = [(executor.build(plan, engine=engine), plan)]
            while pairs:
                operator, node = pairs.pop()
                assert operator.schema.node_ids == node.output_nodes()
                pairs.extend(zip(_operator_children(operator),
                                 node.children(), strict=True))

    def test_buffer_statistics_collected(self, setup):
        executor, __ = setup
        metrics = executor.execute(fully_pipelined_plan()).metrics
        assert metrics.buffer_hits + metrics.buffer_misses > 0
