"""Targeted tests for less-travelled paths across the library."""

import pytest

from repro.api import Database
from repro.errors import PlanError
from repro.core.optimizer import get_optimizer
from repro.core.pattern import Axis, QueryPattern
from repro.core.plans import (IndexScanPlan, JoinAlgorithm,
                              StructuralJoinPlan)
from repro.core.status import Move, Status, StatusNode
from repro.document.parser import parse_xml
from repro.engine.context import EngineContext
from repro.engine.executor import Executor
from repro.engine.metrics import ExecutionMetrics
from repro.engine.operators import Operator
from repro.engine.tuples import Schema
from repro.estimation.estimator import ExactEstimator


class TestOperatorContract:
    def test_ordered_by_must_be_in_schema(self):
        with pytest.raises(PlanError, match="not in its"):
            Operator(Schema((0, 1)), 5, ExecutionMetrics())

    def test_base_produce_abstract(self):
        operator = Operator(Schema((0,)), 0, ExecutionMetrics())
        with pytest.raises(NotImplementedError):
            list(operator.run())


class TestNestedLoopPlanExecution:
    def test_executor_builds_nested_loop_joins(self, small_document):
        """The NESTED_LOOP plan algorithm is executable (used by the
        oracle comparisons), not just the stack-tree ones."""
        database = Database.from_document(small_document)
        pattern = QueryPattern.build({
            "nodes": ["manager", "employee"], "edges": [(0, 1, "//")]})
        plan = StructuralJoinPlan(
            IndexScanPlan(0), IndexScanPlan(1), 0, 1, Axis.DESCENDANT,
            JoinAlgorithm.NESTED_LOOP)
        context = EngineContext(database.index, small_document)
        result = Executor(context, pattern).execute(plan)
        reference = database.query(pattern)
        assert result.canonical() == reference.execution.canonical()


class TestMoveIntrospection:
    def test_output_order_and_describe(self, running_example_pattern):
        edge = running_example_pattern.edge_between(0, 1)
        merged = StatusNode(frozenset({0, 1}), 1)
        others = frozenset(
            StatusNode(frozenset({n}), n) for n in (2, 3, 4, 5))
        move = Move(edge=edge, algorithm=JoinAlgorithm.STACK_TREE_DESC,
                    sort_to=None, cost=12.0,
                    result=Status(others | frozenset((merged,))))
        assert move.output_order == 1
        described = move.describe()
        assert "stack-tree-desc" in described
        assert "12.0" in described
        sorted_move = Move(edge=edge,
                           algorithm=JoinAlgorithm.STACK_TREE_DESC,
                           sort_to=0, cost=20.0, result=move.result)
        assert "sort by 0" in sorted_move.describe()


class TestUnicodeEndToEnd:
    def test_unicode_document_query_and_persist(self):
        # element names are ASCII (the parser's lexer restriction);
        # text and attribute values are arbitrary unicode end to end
        document = parse_xml(
            '<shop><book price="вісім"><title>森の歌 — Ліс</title>'
            "</book></shop>")
        database = Database.from_document(document)
        result = database.query("//book/title")
        assert len(result) == 1
        binding = result.execution.bindings()[0]
        title = document.node(binding[1].start)
        assert "森の歌" in title.text
        database.persist()
        reopened = Database.open(database.disk)
        node = reopened.document.nodes_with_tag("title")[0]
        assert node.text == title.text
        assert node.text == "森の歌 — Ліс"


class TestDegenerateShapes:
    def test_deep_chain_pattern(self, small_document):
        """A 5-step pure child chain exercises the narrowest search."""
        database = Database.from_document(parse_xml(
            "<a><b><c><d><e/></d></c></b></a>"))
        pattern = QueryPattern.build({
            "nodes": ["a", "b", "c", "d", "e"],
            "edges": [(0, 1, "/"), (1, 2, "/"), (2, 3, "/"),
                      (3, 4, "/")],
        })
        for algorithm in ("DP", "DPP", "FP", "DPAP-LD"):
            result = database.query(pattern, algorithm=algorithm)
            assert len(result) == 1

    def test_star_pattern_max_fanout(self):
        """A root with 4 leaf children stresses FP's permutation
        enumeration (4! orders)."""
        database = Database.from_document(parse_xml(
            "<r><a/><b/><c/><d/><a/><b/></r>"))
        pattern = QueryPattern.build({
            "nodes": ["r", "a", "b", "c", "d"],
            "edges": [(0, 1, "/"), (0, 2, "/"), (0, 3, "/"),
                      (0, 4, "/")],
        })
        exact = ExactEstimator(database.document)
        fp = get_optimizer("FP").optimize(pattern, exact)
        dp = get_optimizer("DP").optimize(pattern, exact)
        assert fp.report.plans_considered >= 24  # at least 4! orders
        execution = database.execute(fp.plan, pattern)
        assert len(execution) == 4  # 2 a's x 2 b's x 1 c x 1 d
        assert dp.estimated_cost <= fp.estimated_cost

    def test_all_same_tag_pattern(self):
        """Self-joins everywhere: a//a/a."""
        database = Database.from_document(parse_xml(
            "<a><a><a/><a><a/></a></a></a>"))
        pattern = QueryPattern.build({
            "nodes": ["a", "a", "a"],
            "edges": [(0, 1, "//"), (1, 2, "/")],
        })
        from repro.engine.nestedloop import naive_pattern_matches

        expected = {tuple(b[k].start for k in sorted(b))
                    for b in naive_pattern_matches(database.document,
                                                   pattern)}
        for algorithm in ("DPP", "FP"):
            result = database.query(pattern, algorithm=algorithm)
            assert result.execution.canonical() == expected
        holistic = database.holistic_query(pattern)
        assert holistic.canonical() == expected


class TestEmptyCandidateSets:
    def test_zero_candidates_optimize_and_execute(self, small_database):
        pattern = QueryPattern.build({
            "nodes": ["manager", "dragon", "name"],
            "edges": [(0, 1, "//"), (1, 2, "/")],
        })
        for algorithm in ("DP", "DPP", "DPAP-EB", "DPAP-LD", "FP"):
            result = small_database.query(pattern, algorithm=algorithm)
            assert len(result) == 0

    def test_zero_candidates_estimates_zero(self, small_database):
        pattern = QueryPattern.build({
            "nodes": ["manager", "dragon"], "edges": [(0, 1, "//")]})
        optimization = small_database.optimize(pattern)
        assert optimization.plan.estimated_cardinality == 0.0
