"""Unit tests for the cardinality estimators."""

import itertools
import random

import pytest

from benchmarks.histogram import PositionalEstimator
from benchmarks.sampling import SamplingEstimator
from repro.core.dpp import DPPOptimizer
from repro.errors import EstimationError
from repro.core.pattern import (PatternNode, Predicate, QueryPattern,
                                mask_nodes)
from repro.estimation.estimator import (ExactEstimator,
                                        PatternCardinalities,
                                        ScaledEstimator, Statistics)
from repro.workloads import personnel_document, random_pattern
from tests.conftest import random_document


@pytest.fixture
def exact(small_document):
    return ExactEstimator(small_document)


@pytest.fixture
def positional(small_document):
    return PositionalEstimator.from_document(small_document)


@pytest.fixture
def pattern():
    return QueryPattern.build({
        "nodes": ["manager", "employee", "name"],
        "edges": [(0, 1, "//"), (1, 2, "/")],
    })


class TestTagStatistics:
    def test_counts(self, small_document):
        stats = Statistics(small_document).entries
        assert stats["manager"].count == 3
        assert stats["*"].count == len(small_document)

    def test_distinct_values(self, small_document):
        stats = Statistics(small_document).entries
        assert stats["name"].distinct_texts > 1
        assert stats["manager"].distinct_attribute_values["id"] == 3


class TestExactEstimator:
    def test_node_cardinality(self, exact):
        assert exact.node_cardinality(PatternNode(0, "manager")) == 3
        assert exact.node_cardinality(PatternNode(0, "nothing")) == 0

    def test_node_cardinality_with_predicate(self, exact):
        node = PatternNode(0, "name", (
            Predicate(kind="text", op="=", value="Ada Adams"),))
        assert exact.node_cardinality(node) == 1

    def test_wildcard(self, exact, small_document):
        assert exact.node_cardinality(PatternNode(0, "*")) == len(
            small_document)

    def test_edge_cardinality_matches_truth(self, exact, pattern,
                                            small_document):
        # manager // employee: count by brute force
        truth = sum(
            1 for m in small_document.nodes_with_tag("manager")
            for e in small_document.nodes_with_tag("employee")
            if m.is_ancestor_of(e))
        assert exact.edge_cardinality(pattern, 0, 1) == truth

    def test_edge_cardinality_parent_child(self, exact, pattern,
                                           small_document):
        truth = sum(
            1 for e in small_document.nodes_with_tag("employee")
            for n in small_document.nodes_with_tag("name")
            if e.is_parent_of(n))
        assert exact.edge_cardinality(pattern, 1, 2) == truth

    def test_edge_must_exist(self, exact, pattern):
        with pytest.raises(EstimationError):
            exact.edge_cardinality(pattern, 0, 2)
        with pytest.raises(EstimationError):
            exact.edge_cardinality(pattern, 1, 0)  # inverted

    def test_cluster_cardinality_single_edge_is_exact(self, exact,
                                                      pattern):
        pair = exact.edge_cardinality(pattern, 0, 1)
        assert PatternCardinalities(pattern, exact).cluster(
            frozenset({0, 1})) == pytest.approx(pair)

    def test_cluster_requires_connected(self, exact, pattern):
        cards = PatternCardinalities(pattern, exact)
        with pytest.raises(EstimationError):
            cards.cluster(frozenset({0, 2}))
        with pytest.raises(EstimationError):
            cards.cluster(frozenset())

    def test_full_cluster_close_to_truth(self, exact, pattern,
                                         small_document):
        from repro.engine.nestedloop import naive_pattern_matches

        truth = len(naive_pattern_matches(small_document, pattern))
        estimate = PatternCardinalities(pattern, exact).cluster(
            frozenset({0, 1, 2}))
        assert estimate == truth


class TestPositionalEstimator:
    def test_node_counts_match_exact(self, positional, exact):
        for tag in ("manager", "employee", "name", "*"):
            node = PatternNode(0, tag)
            assert positional.node_candidates(node) == \
                exact.node_candidates(node)

    def test_edge_estimates_right_magnitude(self, positional, exact,
                                            pattern):
        truth = exact.edge_cardinality(pattern, 0, 1)
        estimate = positional.edge_cardinality(pattern, 0, 1)
        assert truth / 4 <= estimate <= truth * 4

    def test_predicate_selectivity_reduces_cardinality(self, positional):
        plain = positional.node_cardinality(PatternNode(0, "name"))
        filtered = positional.node_cardinality(PatternNode(0, "name", (
            Predicate(kind="text", op="=", value="Ada Adams"),)))
        assert 0 < filtered < plain

    def test_range_predicate_selectivity(self, positional):
        filtered = positional.node_cardinality(PatternNode(0, "name", (
            Predicate(kind="text", op="<", value="M"),)))
        plain = positional.node_cardinality(PatternNode(0, "name"))
        assert filtered == pytest.approx(plain / 3)

    def test_edge_estimates_cached(self, positional, pattern):
        first = positional.edge_cardinality(pattern, 0, 1)
        assert positional.edge_cardinality(pattern, 0, 1) == first
        assert len(positional._edge_cache) == 1

    def test_missing_tag_estimates_zero(self, positional):
        pattern = QueryPattern.build({
            "nodes": ["manager", "unicorn"], "edges": [(0, 1, "//")]})
        assert positional.node_cardinality(PatternNode(0, "unicorn")) == 0
        assert positional.edge_cardinality(pattern, 0, 1) == 0.0


class TestPatternCardinalities:
    def test_caching(self, exact, pattern):
        cards = PatternCardinalities(pattern, exact)
        assert cards.node(0) == cards.node(0) == 3
        cluster = frozenset({0, 1})
        assert cards.cluster(cluster) == cards.cluster(cluster)
        assert cards.cluster(frozenset({2})) == cards.node(2)

    def test_candidates_vs_filtered(self, small_document, pattern):
        exact = ExactEstimator(small_document)
        filtered_pattern = QueryPattern.build({
            "nodes": [("name", [Predicate(kind="text", op="=",
                                          value="Ada Adams")])],
            "edges": [],
        })
        cards = PatternCardinalities(filtered_pattern, exact)
        assert cards.candidates(0) == small_document.tag_count("name")
        assert cards.node(0) == 1


class TestScaledEstimator:
    @pytest.mark.parametrize("factor", [float("nan"), float("inf"),
                                        float("-inf"), -1.0])
    def test_rejects_a_non_finite_or_negative_scale(self, exact, factor):
        with pytest.raises(EstimationError,
                           match="tag scale for 'employee' must be finite"):
            ScaledEstimator(exact, {"manager": 2.0, "employee": factor})

    def test_accepts_zero(self, exact):
        scaled = ScaledEstimator(exact, {"manager": 0.0})
        assert scaled.node_cardinality(PatternNode(0, "manager")) == 0.0


def reference_cardinality(pattern, estimator, mask):
    """The sub-pattern formula spelled out: every node's cardinality,
    then every edge inside *mask*, in pattern order, each read from
    the estimator where it is used — 0 at the first such edge with an
    endpoint without candidates."""
    cardinality = 1.0
    for node_id in mask_nodes(mask):
        cardinality *= estimator.node_cardinality(pattern.node(node_id))
    for edge in pattern.edges:
        if not (mask >> edge.parent & 1 and mask >> edge.child & 1):
            continue
        parent_size = estimator.node_cardinality(pattern.node(edge.parent))
        child_size = estimator.node_cardinality(pattern.node(edge.child))
        if parent_size == 0 or child_size == 0:
            cardinality = 0.0
            break
        pair = estimator.edge_cardinality(pattern, edge.parent, edge.child)
        cardinality *= pair / (parent_size * child_size)
    return cardinality


#: a tag the document does not have, inside the twig: every cluster
#: of two or more nodes with node 2 takes the 0.0 branch
MISSING_TAG = QueryPattern.build({
    "nodes": ["a", "b", "nothing", "c", "d"],
    "edges": [(0, 1, "//"), (1, 2, "/"), (2, 3, "//"), (0, 4, "/")],
})


class TestClusterFactors:
    """A pairwise estimator's counter multiplies factors read once per
    query; every float must be the one the formula gives.  The
    positional case is the paper's estimator: the histograms alone.  The summary case is the estimator a database
    plans with, whose clusters are not that product: its single edge
    is the summary's two-node cluster, which on every predicate-free
    ``/`` and ``//`` edge between two of the document's tags (``*``
    included) is the true pair count, up to the rounding of the
    summary's ``count(t) / count(s)`` steps."""

    @pytest.mark.parametrize("kind", ["positional", "summary"])
    def test_every_connected_mask_matches_the_formula(self, kind):
        document = random_document(3, size=300)
        if kind == "summary":
            estimator = Statistics(document).estimator()
            exact = ExactEstimator(document)
            tags = document.tags() + ["*"]
            for (parent, child), axis in itertools.product(
                    itertools.product(tags, repeat=2), ("/", "//")):
                pattern = QueryPattern.build({
                    "nodes": [parent, child], "edges": [(0, 1, axis)]})
                truth = exact.edge_cardinality(pattern, 0, 1)
                assert estimator.edge_cardinality(pattern, 0, 1) == \
                    pytest.approx(truth, rel=1e-9, abs=1e-9), pattern
            return
        estimator = PositionalEstimator.from_document(document)
        patterns = [random_pattern(random.Random(seed), min_nodes=size,
                                   max_nodes=size, predicate_chance=0.3)
                    for size in (2, 4, 6, 8) for seed in range(4)]
        zeros = 0
        for pattern in patterns + [MISSING_TAG]:
            cards = PatternCardinalities(pattern, estimator)
            for mask in range(1, 1 << len(pattern)):
                if not pattern.is_connected_mask(mask):
                    with pytest.raises(EstimationError,
                                       match="not a connected"):
                        cards.cluster_cardinality(mask)
                    continue
                expected = repr(reference_cardinality(pattern, estimator,
                                                      mask))
                assert repr(cards.cluster_cardinality(mask)) == expected
                # ... and again from the cache
                assert repr(cards.cluster_cardinality(mask)) == expected
                if (pattern is MISSING_TAG and mask & (mask - 1)
                        and mask >> 2 & 1):
                    assert expected == "0.0"
                    zeros += 1
        assert zeros


class TestSamplingEstimator:
    def test_exact_when_sample_covers_all(self, small_document, exact,
                                          pattern):
        sampler = SamplingEstimator(small_document, sample_size=10**6)
        for parent, child in ((0, 1), (1, 2)):
            assert sampler.edge_cardinality(
                pattern, parent, child) == pytest.approx(
                    exact.edge_cardinality(pattern, parent, child))

    def test_sampled_estimate_close_on_generated_data(self, pattern):
        document = personnel_document(target_nodes=1500, seed=3)
        exact = ExactEstimator(document)
        sampler = SamplingEstimator(document, sample_size=32)
        truth = exact.edge_cardinality(pattern, 0, 1)
        estimate = sampler.edge_cardinality(pattern, 0, 1)
        assert truth > 0
        assert truth / 2 <= estimate <= truth * 2

    def test_usually_beats_histograms(self, pattern):
        """On recursive data the sampler should not be (much) worse
        than the 16x16 positional histogram."""
        document = personnel_document(target_nodes=1500, seed=3)
        exact = ExactEstimator(document)
        histogram = PositionalEstimator.from_document(document)
        sampler = SamplingEstimator(document, sample_size=64)
        truth = exact.edge_cardinality(pattern, 0, 1)
        histogram_error = abs(
            histogram.edge_cardinality(pattern, 0, 1) - truth)
        sampling_error = abs(
            sampler.edge_cardinality(pattern, 0, 1) - truth)
        assert sampling_error <= histogram_error * 1.5

    def test_node_cardinalities(self, small_document):
        sampler = SamplingEstimator(small_document)
        assert sampler.node_cardinality(PatternNode(0, "manager")) == 3
        assert sampler.node_cardinality(PatternNode(0, "missing")) == 0

    def test_optimizers_accept_sampler(self, small_document, pattern):
        result = DPPOptimizer().optimize(
            pattern, SamplingEstimator(small_document))
        assert result.estimated_cost > 0

    def test_invalid_sample_size(self, small_document):
        with pytest.raises(EstimationError):
            SamplingEstimator(small_document, sample_size=0)
