"""Correctness tests for the Stack-Tree join operators.

Every test checks both Stack-Tree-Desc and Stack-Tree-Anc against a
brute-force oracle, and asserts the documented output orders.
"""

import pytest

from repro.api import Database
from repro.core.pattern import Axis, PatternNode
from repro.document.parser import parse_xml
from repro.engine.context import EngineContext
from repro.engine.nestedloop import NestedLoopJoin
from repro.engine.scan import IndexScan
from repro.engine.stackjoin import StackTreeAncJoin, StackTreeDescJoin


def engine_for(document):
    database = Database.from_document(document)
    return EngineContext(database.index, document)


def oracle_pairs(document, anc_tag, desc_tag, axis):
    pairs = []
    for anc in document.nodes_with_tag(anc_tag):
        for desc in document.nodes_with_tag(desc_tag):
            if not anc.is_ancestor_of(desc):
                continue
            if axis is Axis.CHILD and not anc.is_parent_of(desc):
                continue
            pairs.append((anc.start, desc.start))
    return sorted(pairs)


def run_join(document, join_class, anc_tag, desc_tag, axis):
    engine = engine_for(document)
    join = join_class(
        IndexScan(PatternNode(0, anc_tag), engine),
        IndexScan(PatternNode(1, desc_tag), engine),
        0, 1, axis)
    rows = list(join.run())
    return engine, join, [(match[0].start, match[1].start)
                          for match in rows]


DOCUMENTS = {
    "flat": "<r><a/><b/><a/><b/></r>",
    "nested": "<r><a><b/><a><b/><b/></a></a><b/></r>",
    "deep": "<r><a><a><a><b/></a></a></a></r>",
    "siblings": "<r><a><b/></a><a><b/></a><a/></r>",
    "mixed": ("<r><a><c/><b><c/></b><a><b><b/></b></a></a>"
              "<b><a><b/></a></b></r>"),
}


@pytest.mark.parametrize("xml_name", sorted(DOCUMENTS))
@pytest.mark.parametrize("axis", [Axis.DESCENDANT, Axis.CHILD])
class TestAgainstOracle:
    def test_stack_tree_desc(self, xml_name, axis):
        document = parse_xml(DOCUMENTS[xml_name])
        expected = oracle_pairs(document, "a", "b", axis)
        __, __, pairs = run_join(document, StackTreeDescJoin, "a", "b",
                                 axis)
        assert sorted(pairs) == expected
        # output ordered by descendant start
        assert [p[1] for p in pairs] == sorted(p[1] for p in pairs)

    def test_stack_tree_anc(self, xml_name, axis):
        document = parse_xml(DOCUMENTS[xml_name])
        expected = oracle_pairs(document, "a", "b", axis)
        __, __, pairs = run_join(document, StackTreeAncJoin, "a", "b",
                                 axis)
        assert sorted(pairs) == expected
        assert [p[0] for p in pairs] == sorted(p[0] for p in pairs)


class TestSelfJoin:
    def test_same_tag_both_sides(self):
        document = parse_xml("<r><a><a><a/></a><a/></a></r>")
        expected = oracle_pairs(document, "a", "a", Axis.DESCENDANT)
        __, __, pairs = run_join(document, StackTreeDescJoin, "a", "a",
                                 Axis.DESCENDANT)
        assert sorted(pairs) == expected
        assert expected  # non-trivial

    def test_self_join_parent_child(self):
        document = parse_xml("<r><a><a><a/></a><a/></a></r>")
        expected = oracle_pairs(document, "a", "a", Axis.CHILD)
        __, __, pairs = run_join(document, StackTreeAncJoin, "a", "a",
                                 Axis.CHILD)
        assert sorted(pairs) == expected


class TestMetrics:
    def test_desc_counts_stack_tuples(self):
        document = parse_xml(DOCUMENTS["mixed"])
        engine, __, __ = run_join(document, StackTreeDescJoin, "a", "b",
                                  Axis.DESCENDANT)
        # every 'a' posting that starts before the last 'b' is pushed
        assert engine.metrics.stack_tuple_ops > 0
        assert engine.metrics.buffered_results == 0  # STD never buffers

    def test_anc_counts_buffered_results(self):
        document = parse_xml(DOCUMENTS["mixed"])
        engine, __, pairs = run_join(document, StackTreeAncJoin, "a",
                                     "b", Axis.DESCENDANT)
        assert engine.metrics.buffered_results == len(pairs)
        assert engine.metrics.output_tuples == len(pairs)


class TestCascadedJoins:
    def test_three_way_pipeline(self, small_document):
        """a//b joined, then result joined with c: checks tuple
        streams with duplicate join-column bindings (grouping)."""
        engine = engine_for(small_document)
        inner = StackTreeDescJoin(
            IndexScan(PatternNode(0, "manager"), engine),
            IndexScan(PatternNode(1, "employee"), engine),
            0, 1, Axis.DESCENDANT)
        outer = StackTreeDescJoin(
            inner,
            IndexScan(PatternNode(2, "name"), engine),
            1, 2, Axis.CHILD)
        rows = list(outer.run())
        # oracle: manager//employee/name triples
        expected = set()
        for m in small_document.nodes_with_tag("manager"):
            for e in small_document.nodes_with_tag("employee"):
                if not m.is_ancestor_of(e):
                    continue
                for n in small_document.nodes_with_tag("name"):
                    if e.is_parent_of(n):
                        expected.add((m.start, e.start, n.start))
        got = {(r[0].start, r[1].start, r[2].start) for r in rows}
        assert got == expected
        # ordered by name (the descendant column of the outer join)
        name_starts = [r[2].start for r in rows]
        assert name_starts == sorted(name_starts)

    def test_anc_side_duplicates_grouped(self, small_document):
        """The ancestor-side stream binds the same manager repeatedly
        (one tuple per employee); STA must group them correctly."""
        engine = engine_for(small_document)
        inner = StackTreeAncJoin(
            IndexScan(PatternNode(0, "manager"), engine),
            IndexScan(PatternNode(1, "employee"), engine),
            0, 1, Axis.DESCENDANT)
        outer = StackTreeAncJoin(
            inner,
            IndexScan(PatternNode(3, "department"), engine),
            0, 3, Axis.DESCENDANT)
        rows = list(outer.run())
        expected = set()
        for m in small_document.nodes_with_tag("manager"):
            for e in small_document.nodes_with_tag("employee"):
                for d in small_document.nodes_with_tag("department"):
                    if m.is_ancestor_of(e) and m.is_ancestor_of(d):
                        expected.add((m.start, e.start, d.start))
        got = {(r[0].start, r[1].start, r[2].start) for r in rows}
        assert got == expected
        manager_starts = [r[0].start for r in rows]
        assert manager_starts == sorted(manager_starts)


class TestNestedLoopOracle:
    def test_nested_loop_agrees_with_stack_tree(self, small_document):
        engine = engine_for(small_document)
        nested = NestedLoopJoin(
            IndexScan(PatternNode(0, "manager"), engine),
            IndexScan(PatternNode(1, "department"), engine),
            0, 1, Axis.DESCENDANT)
        nested_rows = {(r[0].start, r[1].start) for r in nested.run()}
        __, __, stack_rows = run_join(small_document, StackTreeDescJoin,
                                      "manager", "department",
                                      Axis.DESCENDANT)
        assert nested_rows == set(stack_rows)


class TestEdgeCases:
    def test_empty_ancestor_side(self):
        document = parse_xml("<r><b/><b/></r>")
        __, __, pairs = run_join(document, StackTreeDescJoin, "a", "b",
                                 Axis.DESCENDANT)
        assert pairs == []

    def test_empty_descendant_side(self):
        document = parse_xml("<r><a/><a/></r>")
        __, __, pairs = run_join(document, StackTreeAncJoin, "a", "b",
                                 Axis.DESCENDANT)
        assert pairs == []

    def test_no_matches_despite_candidates(self):
        document = parse_xml("<r><a/><b/></r>")  # siblings, no nesting
        __, __, pairs = run_join(document, StackTreeDescJoin, "a", "b",
                                 Axis.DESCENDANT)
        assert pairs == []

    def test_root_ancestor(self):
        document = parse_xml("<a><b/><c><b/></c></a>")
        __, __, pairs = run_join(document, StackTreeAncJoin, "a", "b",
                                 Axis.DESCENDANT)
        assert len(pairs) == 2
