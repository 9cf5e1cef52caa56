"""Unit tests for the status/move search space (Definitions 1-6)."""

import random
from functools import lru_cache
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.api import Database
from repro.errors import EstimationError, OptimizerError
from repro.core.enumeration import (EnumerationContext, is_doomed,
                                    possible_moves, upper_bound_completion)
from repro.core.status import ANY_ORDER, Status, StatusNode
from repro.estimation.estimator import PatternCardinalities
from repro.workloads import random_pattern


class TestStatusNode:
    def test_singleton(self):
        node = StatusNode(frozenset({2}), 2)
        assert node.is_singleton
        assert node.ordered_by == 2

    def test_ordered_by_must_be_member(self):
        with pytest.raises(OptimizerError):
            StatusNode(frozenset({1, 2}), 5)

    def test_any_order_allowed(self):
        node = StatusNode(frozenset({0, 1, 2}), ANY_ORDER)
        assert node.ordered_by == ANY_ORDER

    def test_empty_cluster_rejected(self):
        with pytest.raises(OptimizerError):
            StatusNode(frozenset(), 0)

    def test_equality_and_hash(self):
        assert StatusNode(frozenset({1, 2}), 1) == StatusNode(
            frozenset({2, 1}), 1)
        assert StatusNode(frozenset({1, 2}), 1) != StatusNode(
            frozenset({1, 2}), 2)

    def test_str_marks_ordered_node(self):
        assert str(StatusNode(frozenset({1, 2}), 2)) == "{1,[2]}"


class TestStatus:
    def test_start_status(self, running_example_pattern):
        start = Status.start(running_example_pattern)
        assert len(start.clusters) == 6
        assert all(cluster.is_singleton for cluster in start.clusters)
        assert start.level(running_example_pattern) == 0
        assert not start.is_final()

    def test_overlapping_clusters_rejected(self):
        with pytest.raises(OptimizerError, match="overlap"):
            Status(frozenset({
                StatusNode(frozenset({0, 1}), 0),
                StatusNode(frozenset({1, 2}), 1),
            }))

    def test_cluster_of(self, running_example_pattern):
        start = Status.start(running_example_pattern)
        assert start.cluster_of(3).nodes == frozenset({3})
        with pytest.raises(OptimizerError):
            start.cluster_of(99)

    def test_remaining_edges(self, running_example_pattern):
        start = Status.start(running_example_pattern)
        assert len(list(start.remaining_edges(running_example_pattern))
                   ) == 5
        merged = Status(frozenset({
            StatusNode(frozenset({0, 1}), 0),
            StatusNode(frozenset({2}), 2),
            StatusNode(frozenset({3}), 3),
            StatusNode(frozenset({4}), 4),
            StatusNode(frozenset({5}), 5),
        }))
        remaining = {(edge.parent, edge.child)
                     for edge in merged.remaining_edges(
                         running_example_pattern)}
        assert remaining == {(1, 2), (0, 3), (3, 4), (4, 5)}

    def test_level_counts_merges(self, running_example_pattern):
        status = Status(frozenset({
            StatusNode(frozenset({0, 1, 2}), 2),
            StatusNode(frozenset({3}), 3),
            StatusNode(frozenset({4}), 4),
            StatusNode(frozenset({5}), 5),
        }))
        assert status.level(running_example_pattern) == 2

    def test_final_status(self, running_example_pattern):
        final = Status(frozenset({
            StatusNode(frozenset(range(6)), ANY_ORDER)}))
        assert final.is_final()
        assert final.level(running_example_pattern) == 5

    def test_growing_nodes(self, running_example_pattern):
        start = Status.start(running_example_pattern)
        assert start.growing_nodes() == []
        status = Status(frozenset({
            StatusNode(frozenset({0, 1}), 0),
            StatusNode(frozenset({2}), 2),
            StatusNode(frozenset({3}), 3),
            StatusNode(frozenset({4}), 4),
            StatusNode(frozenset({5}), 5),
        }))
        assert len(status.growing_nodes()) == 1

    def test_status_equality_is_content_based(self,
                                              running_example_pattern):
        first = Status.start(running_example_pattern)
        second = Status.start(running_example_pattern)
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


# -- the integer representation against a frozenset reference ---------------

def _components(size, edges, cut):
    """Connected clusters left after removing the *cut* edges."""
    owner = list(range(size))

    def find(node):
        while owner[node] != node:
            node = owner[node]
        return node

    for edge, removed in zip(edges, cut):
        if not removed:
            owner[find(edge.child)] = find(edge.parent)
    groups = {}
    for node in range(size):
        groups.setdefault(find(node), set()).add(node)
    return [frozenset(group) for group in groups.values()]


@st.composite
def partitioned_patterns(draw, max_nodes=9):
    """A random pattern and a random connected partition of it, each
    cluster ordered by a random member (or ``ANY_ORDER``)."""
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    pattern = random_pattern(
        random.Random(draw(st.integers(min_value=0, max_value=10**6))),
        min_nodes=size, max_nodes=size)
    cut = draw(st.lists(st.booleans(), min_size=size - 1,
                        max_size=size - 1))
    clusters = [StatusNode(nodes, draw(st.sampled_from(
                    sorted(nodes) + [ANY_ORDER])))
                for nodes in _components(size, pattern.edges, cut)]
    return pattern, clusters


@lru_cache(maxsize=1)
def _database():
    from tests.conftest import random_document

    return Database.from_document(random_document(7, size=200))


def _context(pattern, left_deep):
    database = _database()
    return EnumerationContext(pattern, database.cost_model,
                              database.estimator, left_deep=left_deep)


class TestStatusProperties:
    @given(partitioned_patterns(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_construction_order_is_invisible(self, case, rng):
        _, clusters = case
        shuffled = list(clusters)
        rng.shuffle(shuffled)
        first, second = Status(clusters), Status(reversed(shuffled))
        assert first == second
        assert hash(first) == hash(second)
        assert first.key == second.key

    @given(partitioned_patterns())
    @settings(max_examples=150, deadline=None)
    def test_accessors_agree_with_a_frozenset_reference(self, case):
        pattern, clusters = case
        status = Status(clusters)
        owner = {node: cluster for cluster in clusters
                 for node in cluster.nodes}
        assert status.clusters == frozenset(clusters)
        for node in range(len(pattern)):
            assert status.cluster_of(node) == owner[node]
        assert list(status.remaining_edges(pattern)) == [
            edge for edge in pattern.edges
            if owner[edge.parent] != owner[edge.child]]
        assert status.level(pattern) == len(pattern) - len(clusters)
        assert status.is_final() == (len(clusters) == 1)
        assert str(status) == " ".join(sorted(map(str, clusters)))

    @given(partitioned_patterns())
    @settings(max_examples=100, deadline=None)
    def test_invalid_clusters_are_refused(self, case):
        pattern, clusters = case
        node = clusters[0].nodes
        with pytest.raises(OptimizerError, match="overlap"):
            Status(clusters + [StatusNode(node, ANY_ORDER)])
        # the pairs are checked by Status itself, not only by StatusNode
        empty = SimpleNamespace(nodes=frozenset(), ordered_by=ANY_ORDER)
        with pytest.raises(OptimizerError, match="empty"):
            Status(clusters[1:] + [empty])
        outside = SimpleNamespace(nodes=node, ordered_by=len(pattern))
        with pytest.raises(OptimizerError, match="not in the cluster"):
            Status(clusters[1:] + [outside])
        if len(clusters) > 1:
            status = Status(clusters)
            ancestor, descendant = (status.mask_of(min(cluster.nodes))
                                    for cluster in clusters[:2])
            with pytest.raises(OptimizerError, match="not in the cluster"):
                status.merged(ancestor, descendant, [len(pattern)])
            with pytest.raises(OptimizerError, match="two clusters"):
                status.merged(ancestor, ancestor, [min(clusters[0].nodes)])

    @given(partitioned_patterns(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_memoised_search_functions_match_a_fresh_context(self, case,
                                                             left_deep):
        pattern, clusters = case
        status = Status(clusters)
        context = _context(pattern, left_deep)
        reached = [status] + [move.result
                              for move in possible_moves(status, context)]
        for candidate in reached * 2:  # the second round reads the memo
            fresh = _context(pattern, left_deep)
            assert is_doomed(candidate, context) == is_doomed(candidate,
                                                              fresh)
            assert upper_bound_completion(candidate, context) == \
                upper_bound_completion(candidate, fresh)

    @given(partitioned_patterns(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_only_connected_clusters_have_a_cardinality(self, case, data):
        pattern, _ = case
        nodes = frozenset(data.draw(st.sets(
            st.integers(min_value=0, max_value=len(pattern) - 1),
            min_size=1)))
        cards = PatternCardinalities(pattern, _database().estimator)
        outside = [not (edge.parent in nodes and edge.child in nodes)
                   for edge in pattern.edges]
        if nodes in _components(len(pattern), pattern.edges, outside):
            assert cards.cluster(nodes) >= 0.0
        else:
            with pytest.raises(EstimationError, match="not a connected"):
                cards.cluster(nodes)
