"""Tests for the pattern -> XPath renderer and the round-trip law."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import XPathSyntaxError
from repro.core.pattern import Predicate, QueryPattern, canonical_signature
from repro.xpath.parser import compile_xpath
from repro.xpath.render import pattern_to_xpath

ROUNDTRIP_CASES = [
    "//manager",
    "//manager/employee",
    "//manager//employee/name",
    "//manager[.//employee]//department/name",
    "//book[@year >= '2000']/title",
    "//a[b][.//c/d]//e",
    "//x[text() = 'v']//y[@k != '3']/z",
    "//*/b[.//c]",
]


class TestRenderer:
    @pytest.mark.parametrize("xpath", ROUNDTRIP_CASES)
    def test_compile_render_compile_fixpoint(self, xpath):
        pattern = compile_xpath(xpath)
        rendered = pattern_to_xpath(pattern)
        recompiled = compile_xpath(rendered)
        assert canonical_signature(recompiled) == canonical_signature(
            pattern), rendered

    def test_spine_follows_order_by(self):
        pattern = compile_xpath("//a[.//b/c]//d/e")
        rendered = pattern_to_xpath(pattern)
        # the result node (e) stays on the spine, b/c stays a predicate
        assert rendered.endswith("/e")
        assert "[" in rendered

    def test_no_order_by_uses_deepest_leaf(self):
        pattern = QueryPattern.build({
            "nodes": ["a", "b", "c", "d"],
            "edges": [(0, 1, "/"), (1, 2, "/"), (0, 3, "//")],
        })
        rendered = pattern_to_xpath(pattern)
        recompiled = compile_xpath(rendered, order_by_result=False)
        assert canonical_signature(recompiled) == canonical_signature(
            pattern)
        assert rendered.startswith("//a")

    def test_quote_selection(self):
        pattern = QueryPattern.build({
            "nodes": [("a", [Predicate(kind="text", op="=",
                                       value="it's")])],
            "edges": [],
        })
        rendered = pattern_to_xpath(pattern)
        assert '"it\'s"' in rendered
        assert canonical_signature(compile_xpath(
            rendered, order_by_result=False)) == canonical_signature(pattern)

    def test_unrenderable_literal(self):
        pattern = QueryPattern.build({
            "nodes": [("a", [Predicate(kind="text", op="=",
                                       value="both'\"quotes")])],
            "edges": [],
        })
        with pytest.raises(XPathSyntaxError, match="both quote"):
            pattern_to_xpath(pattern)


class TestSignature:
    def test_isomorphic_under_child_order(self):
        first = QueryPattern.build({
            "nodes": ["a", "b", "c"],
            "edges": [(0, 1, "/"), (0, 2, "//")]})
        second = QueryPattern.build({
            "nodes": ["a", "c", "b"],
            "edges": [(0, 1, "//"), (0, 2, "/")]})
        assert canonical_signature(first) == canonical_signature(second)

    def test_distinguishes_axes_and_shape(self):
        child = compile_xpath("//a/b")
        descendant = compile_xpath("//a//b")
        assert canonical_signature(child) != canonical_signature(descendant)
        chain = compile_xpath("//a/b/c")
        star = compile_xpath("//a[b]/c")
        assert canonical_signature(chain) != canonical_signature(star)


@st.composite
def renderable_patterns(draw, max_nodes=5):
    """Random patterns with tags, axes and occasional predicates."""
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = []
    for __ in range(size):
        tag = draw(st.sampled_from(("a", "b", "c", "item", "*")))
        predicates = []
        if draw(st.booleans()):
            kind = draw(st.sampled_from(("text", "attribute")))
            predicates.append(Predicate(
                kind=kind,
                op=draw(st.sampled_from(("=", "!=", "<", ">="))),
                value=draw(st.sampled_from(("1", "2000", "x y"))),
                name="k" if kind == "attribute" else ""))
        nodes.append((tag, predicates) if predicates else tag)
    edges = []
    for child in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        axis = draw(st.sampled_from(("/", "//")))
        edges.append((parent, child, axis))
    return QueryPattern.build({"nodes": nodes, "edges": edges})


class TestRoundTripProperty:
    @given(renderable_patterns())
    @settings(max_examples=120, deadline=None)
    def test_render_compile_isomorphism(self, pattern):
        rendered = pattern_to_xpath(pattern)
        recompiled = compile_xpath(rendered, order_by_result=False)
        assert canonical_signature(recompiled) == canonical_signature(
            pattern), rendered

    @given(renderable_patterns())
    @settings(max_examples=60, deadline=None)
    def test_roundtripped_pattern_gives_same_results(self, pattern):
        """Semantic check: the round-tripped pattern matches exactly
        the same bindings on a concrete document."""
        from repro.api import Database
        from tests.conftest import random_document

        document = random_document(11, size=30,
                                   tags=("a", "b", "c", "item"))
        database = Database.from_document(document)
        original = database.query(pattern)
        rendered = compile_xpath(pattern_to_xpath(pattern),
                                 order_by_result=False)
        roundtripped = database.query(rendered)
        assert len(original) == len(roundtripped)
        assert {tuple(sorted(r.start for r in row))
                for row in original.execution.tuples} == \
            {tuple(sorted(r.start for r in row))
             for row in roundtripped.execution.tuples}