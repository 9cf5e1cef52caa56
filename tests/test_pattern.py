"""Unit tests for query patterns and predicates."""

import pytest

from repro.errors import PatternError
from repro.core.pattern import (Axis, PatternBuilder, PatternEdge,
                                PatternNode, Predicate, QueryPattern,
                                mask_nodes, node_mask)
from repro.api import Database
from repro.document.node import NodeRecord, Region
from repro.engine.nestedloop import naive_pattern_matches
from repro.workloads import dblp_document

from tests.conftest import canonical_bindings


def node_with(tag="item", text="", attributes=None):
    return NodeRecord(0, tag, Region(0, 0, 0), text=text,
                      attributes=attributes or {})


class TestPredicate:
    def test_text_equality(self):
        predicate = Predicate(kind="text", op="=", value="Ada")
        assert predicate.matches(node_with(text="Ada"))
        assert not predicate.matches(node_with(text="Bob"))

    def test_attribute_equality(self):
        predicate = Predicate(kind="attribute", op="=", value="1",
                              name="year")
        assert predicate.matches(node_with(attributes={"year": "1"}))
        assert not predicate.matches(node_with(attributes={"year": "2"}))
        assert not predicate.matches(node_with())  # attribute absent

    def test_numeric_comparison(self):
        predicate = Predicate(kind="attribute", op=">=", value="2000",
                              name="year")
        assert predicate.matches(node_with(attributes={"year": "2001"}))
        assert not predicate.matches(node_with(attributes={"year": "99"}))
        # the constant is parsed once; a value that is no number
        # compares as a string
        less = Predicate(kind="text", op="<", value="10")
        assert less.matches(node_with(text="9"))  # 9 < 10, not "9" < "10"
        assert not less.matches(node_with(text="abc"))  # "abc" > "10"
        assert less == Predicate(kind="text", op="<", value="10")
        assert repr(less) == (
            "Predicate(kind='text', op='<', value='10', name='')")

    def test_string_comparison_fallback(self):
        predicate = Predicate(kind="text", op="<", value="m")
        assert predicate.matches(node_with(text="abc"))
        assert not predicate.matches(node_with(text="zzz"))

    def test_contains(self):
        predicate = Predicate(kind="text", op="contains", value="dam")
        assert predicate.matches(node_with(text="Ada Adams"))
        # a substring test even when both sides parse as numbers
        year = Predicate(kind="text", op="contains", value="19")
        assert year.matches(node_with(text="1997"))
        assert year.matches(node_with(text="2019"))
        assert not year.matches(node_with(text="2003"))
        assert not year.matches(node_with(text="1.9"))
        attribute = Predicate(kind="attribute", op="contains",
                              value="2", name="id")
        assert attribute.matches(node_with(attributes={"id": "12"}))
        assert not attribute.matches(node_with(attributes={"id": "u3"}))

    def test_invalid_kind_and_op(self):
        with pytest.raises(PatternError):
            Predicate(kind="weird", op="=", value="x")
        with pytest.raises(PatternError):
            Predicate(kind="text", op="~", value="x")
        with pytest.raises(PatternError):
            Predicate(kind="attribute", op="=", value="x")  # no name


class TestPatternNode:
    def test_tag_match(self):
        node = PatternNode(0, "manager")
        assert node.matches(node_with(tag="manager"))
        assert not node.matches(node_with(tag="employee"))

    def test_wildcard(self):
        node = PatternNode(0, "*")
        assert node.is_wildcard
        assert node.matches(node_with(tag="anything"))

    def test_predicates_conjunctive(self):
        node = PatternNode(0, "m", (
            Predicate(kind="text", op="=", value="x"),
            Predicate(kind="attribute", op="=", value="1", name="k"),
        ))
        assert node.matches(node_with(tag="m", text="x",
                                      attributes={"k": "1"}))
        assert not node.matches(node_with(tag="m", text="x"))

    def test_label(self):
        node = PatternNode(0, "m",
                           (Predicate(kind="text", op="=", value="x"),))
        assert node.label() == "m[text() = 'x']"


class TestQueryPattern:
    def test_build_from_spec(self, running_example_pattern):
        pattern = running_example_pattern
        assert len(pattern) == 6
        assert pattern.root == 0
        assert pattern.edge_between(0, 1).axis is Axis.DESCENDANT
        assert pattern.edge_between(1, 2).axis is Axis.CHILD
        assert pattern.edge_between(2, 1) is pattern.edge_between(1, 2)
        assert pattern.edge_between(2, 5) is None

    def test_neighbors(self, running_example_pattern):
        pattern = running_example_pattern
        assert sorted(pattern.neighbors(0)) == [1, 3]
        assert sorted(pattern.neighbors(1)) == [0, 2]
        assert pattern.neighbors(5) == [4]
        for node in pattern.nodes:
            assert mask_nodes(pattern.adjacency[node.node_id]) == tuple(
                sorted(pattern.neighbors(node.node_id)))

    def test_connected_subsets(self, running_example_pattern):
        pattern = running_example_pattern
        assert pattern.is_connected_mask(node_mask({0, 1, 2}))
        assert pattern.is_connected_mask(node_mask({0}))
        assert not pattern.is_connected_mask(node_mask({1, 3}))
        assert not pattern.is_connected_mask(node_mask(set()))
        assert not pattern.is_connected_mask(node_mask({5, 6}))

    def test_edges_within(self, running_example_pattern):
        pattern = running_example_pattern
        inside = node_mask({0, 1, 2})
        inner = [edge for edge, ends in zip(pattern.edges,
                                            pattern.edge_masks)
                 if inside & ends == ends]
        assert {(edge.parent, edge.child) for edge in inner} == {
            (0, 1), (1, 2)}

    def test_subtree_nodes(self, running_example_pattern):
        assert running_example_pattern.subtree_nodes(3) == frozenset(
            {3, 4, 5})
        assert running_example_pattern.subtree_nodes(0) == frozenset(
            range(6))

    def test_walk_preorder(self, running_example_pattern):
        order = list(running_example_pattern.walk_preorder())
        assert order[0] == 0
        assert set(order) == set(range(6))
        assert order.index(1) < order.index(2)
        assert order.index(3) < order.index(5)

    def test_depth(self, running_example_pattern, chain_pattern):
        assert running_example_pattern.depth() == 3
        assert chain_pattern.depth() == 2

    def test_describe_mentions_order_by(self):
        pattern = QueryPattern.build({
            "nodes": ["a", "b"], "edges": [(0, 1, "/")], "order_by": 1})
        assert "order by $1" in pattern.describe()

    def test_validation_rejects_cycles_and_forests(self):
        with pytest.raises(PatternError, match="two parents"):
            QueryPattern.build({"nodes": ["a", "b", "c"],
                                "edges": [(0, 1, "/"), (2, 1, "/")]})
        with pytest.raises(PatternError, match="edges"):
            QueryPattern.build({"nodes": ["a", "b", "c"],
                                "edges": [(0, 1, "/")]})
        with pytest.raises(PatternError, match="not connected"):
            QueryPattern.build({
                "nodes": ["a", "b", "c", "d"],
                "edges": [(0, 1, "/"), (2, 3, "/"), (3, 2, "/")]})

    def test_validation_rejects_bad_references(self):
        with pytest.raises(PatternError):
            QueryPattern.build({"nodes": ["a", "b"],
                                "edges": [(0, 5, "/")]})
        with pytest.raises(PatternError, match="order_by"):
            QueryPattern.build({"nodes": ["a"], "edges": [],
                                "order_by": 3})

    def test_single_node_pattern(self):
        pattern = QueryPattern.build({"nodes": ["a"], "edges": []})
        assert len(pattern) == 1
        assert pattern.root == 0


class TestPatternBuilder:
    def test_fluent_construction(self):
        builder = PatternBuilder()
        manager = builder.node("manager")
        employee = builder.node("employee")
        builder.edge(manager, employee, Axis.DESCENDANT)
        pattern = builder.finish(order_by=manager)
        assert len(pattern) == 2
        assert pattern.order_by == manager

    def test_add_predicate(self):
        builder = PatternBuilder()
        node = builder.node("a")
        builder.add_predicate(node, Predicate(kind="text", op="=",
                                              value="x"))
        pattern = builder.finish()
        assert len(pattern.node(0).predicates) == 1


@pytest.mark.parametrize("xpath", [
    "//year[contains(., '19')]",
    "//inproceedings[year[contains(., '19')]]/title",
    "//article[year[contains(text(), '0')]]//author",
])
def test_contains_on_numeric_values_runs_on_both_engines(xpath):
    """``contains`` over values that parse as numbers (DBLP years) is a
    substring test on both engines, and their rows are the
    brute-force matches."""
    database = Database.from_document(dblp_document(entries=60, seed=42))
    pattern = database.compile(xpath)
    plan = database.optimize(pattern).plan
    expected = canonical_bindings(naive_pattern_matches(
        database.document, pattern))
    assert expected
    for engine in ("block", "tuple"):
        result = database.execute(plan, pattern, engine=engine)
        assert canonical_bindings(result.bindings()) == expected
