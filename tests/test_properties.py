"""Property-based tests (hypothesis) for the core invariants.

Strategies generate random tree documents and random tree patterns;
the properties assert the load-bearing facts of the system:

* region encodings built by the builder always satisfy the nesting
  invariants the join operators rely on;
* parse/serialize round-trips preserve the node table;
* stack-tree joins agree with a brute-force oracle on any document;
* every optimizer produces a plan whose execution equals the oracle,
  and DP == DPP on estimated cost (optimality).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.api import Database
from repro.core.optimizer import get_optimizer
from repro.core.pattern import QueryPattern
from repro.core.plans import validate_plan
from repro.document.builder import DocumentBuilder
from repro.document.parser import parse_xml
from repro.document.serialize import serialize
from repro.engine.nestedloop import naive_pattern_matches
from repro.estimation.estimator import ExactEstimator
from tests.conftest import pair_count

TAGS = ("a", "b", "c")


@st.composite
def tree_documents(draw, max_nodes=25):
    """Random region-encoded documents over a tiny tag alphabet."""
    actions = draw(st.lists(
        st.tuples(st.sampled_from(("open", "close")),
                  st.sampled_from(TAGS)),
        min_size=1, max_size=max_nodes * 2))
    builder = DocumentBuilder(name="prop")
    builder.start_element("r")
    depth = 1
    nodes = 1
    for action, tag in actions:
        if action == "open" and nodes < max_nodes:
            builder.start_element(tag)
            depth += 1
            nodes += 1
        elif action == "close" and depth > 1:
            builder.end_element()
            depth -= 1
    while depth:
        builder.end_element()
        depth -= 1
    return builder.finish()


@st.composite
def tree_patterns(draw, max_nodes=4):
    """Random connected tree patterns over the same alphabet."""
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    tags = [draw(st.sampled_from(TAGS + ("r", "*")))
            for _ in range(size)]
    edges = []
    for child in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        axis = draw(st.sampled_from(("/", "//")))
        edges.append((parent, child, axis))
    return QueryPattern.build({"nodes": tags, "edges": edges})


def oracle_keys(document, pattern):
    return {tuple(binding[k].start for k in sorted(binding))
            for binding in naive_pattern_matches(document, pattern)}


class TestDocumentInvariants:
    @given(tree_documents())
    @settings(max_examples=60, deadline=None)
    def test_region_encoding_invariants(self, document):
        nodes = list(document)
        # unique, dense start positions in document order
        assert [n.start for n in nodes] == list(range(len(nodes)))
        for node in nodes:
            assert node.start <= node.end < len(nodes)
            parent = document.parent(node)
            if parent is not None:
                assert parent.is_parent_of(node)
        # any two regions are nested or disjoint, never interleaved
        for first in nodes:
            for second in nodes:
                if first.start < second.start <= first.end:
                    assert second.end <= first.end

    @given(tree_documents())
    @settings(max_examples=40, deadline=None)
    def test_serialize_parse_roundtrip(self, document):
        reparsed = parse_xml(serialize(document))
        assert [(n.tag, n.region, n.parent_id) for n in reparsed] == \
            [(n.tag, n.region, n.parent_id) for n in document]

    @given(tree_documents())
    @settings(max_examples=40, deadline=None)
    def test_descendant_navigation_matches_regions(self, document):
        for node in document:
            via_navigation = {d.start for d in document.descendants(node)}
            via_regions = {other.start for other in document
                           if node.is_ancestor_of(other)}
            assert via_navigation == via_regions


class TestJoinProperties:
    @given(tree_documents())
    @settings(max_examples=50, deadline=None)
    def test_containment_count_matches_bruteforce(self, document):
        ancs = [n.region for n in document.nodes_with_tag("a")]
        descs = [n.region for n in document.nodes_with_tag("b")]
        brute = sum(1 for a in ancs for d in descs if a.contains(d))
        assert pair_count(document, "a", "b") == brute

    @given(tree_documents(), st.sampled_from(TAGS),
           st.sampled_from(TAGS), st.booleans())
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stack_joins_match_oracle(self, document, anc_tag, desc_tag,
                                      use_anc):
        from repro.core.pattern import Axis, PatternNode
        from repro.engine.context import EngineContext
        from repro.engine.scan import IndexScan
        from repro.engine.stackjoin import (StackTreeAncJoin,
                                            StackTreeDescJoin)

        database = Database.from_document(document)
        engine = EngineContext(database.index, document)
        join_class = StackTreeAncJoin if use_anc else StackTreeDescJoin
        join = join_class(
            IndexScan(PatternNode(0, anc_tag), engine),
            IndexScan(PatternNode(1, desc_tag), engine),
            0, 1, Axis.DESCENDANT)
        got = {(r[0].start, r[1].start) for r in join.run()}
        expected = {
            (a.start, d.start)
            for a in document.nodes_with_tag(anc_tag)
            for d in document.nodes_with_tag(desc_tag)
            if a.is_ancestor_of(d)}
        assert got == expected


class TestOptimizerProperties:
    @given(tree_documents(max_nodes=20), tree_patterns(max_nodes=4),
           st.sampled_from(("DP", "DPP", "DPP'", "DPAP-EB", "DPAP-LD",
                            "FP")))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_optimized_plans_are_correct(self, document, pattern,
                                         algorithm):
        database = Database.from_document(document)
        result = get_optimizer(algorithm).optimize(
            pattern, ExactEstimator(document))
        validate_plan(result.plan, pattern)
        execution = database.execute(result.plan, pattern)
        assert execution.canonical() == oracle_keys(document, pattern)

    @given(tree_documents(max_nodes=20), tree_patterns(max_nodes=4))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_dp_dpp_equal_optimum(self, document, pattern):
        estimator = ExactEstimator(document)
        dp = get_optimizer("DP").optimize(pattern, estimator)
        dpp = get_optimizer("DPP").optimize(pattern, estimator)
        assert abs(dp.estimated_cost - dpp.estimated_cost) < 1e-6 * max(
            1.0, dp.estimated_cost)

    @given(tree_documents(max_nodes=20), tree_patterns(max_nodes=4))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_heuristics_bounded_below_by_optimum(self, document,
                                                 pattern):
        estimator = ExactEstimator(document)
        optimum = get_optimizer("DP").optimize(pattern,
                                               estimator).estimated_cost
        for algorithm in ("DPAP-EB", "DPAP-LD", "FP"):
            cost = get_optimizer(algorithm).optimize(
                pattern, estimator).estimated_cost
            assert cost >= optimum - 1e-9

    @given(tree_documents(max_nodes=20), tree_patterns(max_nodes=4))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fp_plans_never_sort(self, document, pattern):
        estimator = ExactEstimator(document)
        result = get_optimizer("FP").optimize(pattern, estimator)
        assert result.plan.is_fully_pipelined


class TestHolisticProperties:
    @given(tree_documents(max_nodes=25), tree_patterns(max_nodes=4))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_twigstack_matches_oracle(self, document, pattern):
        database = Database.from_document(document)
        result = database.holistic_query(pattern)
        assert result.canonical() == oracle_keys(document, pattern)
