"""Unit tests for the status/move search space (Definitions 1-6)."""

import random
from functools import lru_cache
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.api import Database
from repro.errors import EstimationError, OptimizerError
from repro.core.enumeration import (EnumerationContext, is_doomed,
                                    possible_moves, upper_bound_completion)
from repro.core.plans import JoinAlgorithm
from repro.core.status import ANY_ORDER, Status, StatusNode, start_code
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

    def test_unrecorded_search_builds_no_status(self, monkeypatch):
        """The searches run on codes; a view is the recorder's alone."""
        from repro.core.optimizer import optimizer_names
        from repro.workloads.queries import PAPER_QUERIES, dataset_document

        query = PAPER_QUERIES["Q.Pers.3.d"]
        database = Database.from_document(dataset_document(query.dataset))
        plain = {name: database.optimize(query.pattern, algorithm=name)
                 for name in [*optimizer_names(), "DPP'"]}
        assert len(plain) == 6

        def refuse(*_):
            raise AssertionError("the search built a Status")

        monkeypatch.setattr(Status, "__init__", refuse)
        for name, expected in plain.items():
            result = database.optimize(query.pattern, algorithm=name)
            assert repr(result.estimated_cost) == repr(
                expected.estimated_cost)
            assert result.report.plans_considered == \
                expected.report.plans_considered


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
        # so is a code: node 0 holding 1 and node 1 holding 0 names
        # an ordered_by outside each cluster
        if len(pattern) > 1:
            swapped = start_code(len(pattern)) ^ 1 ^ 1 << len(
                pattern).bit_length()
            with pytest.raises(OptimizerError, match="not in the cluster"):
                Status.from_code(swapped, pattern)
        # and two unordered clusters have no code: their fields agree
        if len(clusters) > 1:
            unordered = [StatusNode(cluster.nodes, ANY_ORDER)
                         for cluster in clusters]
            with pytest.raises(OptimizerError, match="unordered"):
                Status(unordered).code

    @given(partitioned_patterns(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_memoised_search_functions_match_a_fresh_context(self, case,
                                                             left_deep):
        pattern, clusters = case
        assume(sum(cluster.ordered_by == ANY_ORDER
                   for cluster in clusters) <= 1)
        code = Status(clusters).code
        context = _context(pattern, left_deep)
        reached = [code] + [move[4] for move in possible_moves(code,
                                                               context)]
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


# -- status codes against a frozenset enumeration of the same rule ----------
#
# A reference status is a frozenset of ``(frozenset of nodes, ordered_by)``
# pairs; the functions below spell the move rule, the doom test and the
# greedy ubCost on it, float operation for float operation, so their costs
# must match the search's to the last bit.


def _view(code, pattern):
    return frozenset((cluster.nodes, cluster.ordered_by)
                     for cluster in Status.from_code(code, pattern).clusters)


def _growing(status):
    """The multi-node clusters of a reference status."""
    return [nodes for nodes, _ in status if len(nodes) > 1]


def _reference_moves(status, context):
    pattern, model = context.pattern, context.cost_model
    cluster = context.cards.cluster
    by_order = {order: nodes for nodes, order in status}
    growing = _growing(status)
    moves = []
    if context.left_deep and len(growing) > 1:
        return moves
    for edge in pattern.edges:
        parent, child = edge.parent, edge.child
        if parent not in by_order or child not in by_order:
            continue  # an input would need a re-sort
        if context.left_deep and growing and (
                (parent in growing[0]) == (child in growing[0])):
            continue
        ancestor, descendant = by_order[parent], by_order[child]
        merged = ancestor | descendant
        rest = status - {(ancestor, parent), (descendant, child)}
        ancestor_card, merged_card = cluster(ancestor), cluster(merged)
        desc = model.stack_tree_desc(ancestor_card)
        anc = model.stack_tree_anc(ancestor_card, merged_card)
        if len(status) == 2:
            for algorithm, order, cost in (
                    (JoinAlgorithm.STACK_TREE_DESC, child, desc),
                    (JoinAlgorithm.STACK_TREE_ANC, parent, anc)):
                sort_to = None
                if pattern.order_by is None:
                    order = ANY_ORDER
                elif order != pattern.order_by:
                    sort_to = order = pattern.order_by
                    cost += model.sort(merged_card)
                moves.append((edge, algorithm, sort_to, repr(cost),
                              rest | {(merged, order)}))
            continue
        moves.append((edge, JoinAlgorithm.STACK_TREE_DESC, None,
                      repr(desc), rest | {(merged, child)}))
        moves.append((edge, JoinAlgorithm.STACK_TREE_ANC, None,
                      repr(anc), rest | {(merged, parent)}))
        for target in sorted(merged - {child}):
            moves.append((edge, JoinAlgorithm.STACK_TREE_DESC, target,
                          repr(desc + model.sort(merged_card)),
                          rest | {(merged, target)}))
    return moves


def _reference_doomed(status, context, moves):
    if len(status) == 1:
        return False
    if not context.left_deep:
        for nodes, order in status:
            if len(nodes) > 1 and (
                    order == ANY_ORDER
                    or not set(context.pattern.neighbors(order)) - nodes):
                return True
    return not moves


def _reference_bound(status, context):
    model, cluster = context.cost_model, context.cards.cluster
    cluster_of = {node: nodes for nodes, _ in status for node in nodes}
    remaining = [edge for edge in context.pattern.edges
                 if cluster_of[edge.parent] != cluster_of[edge.child]]
    joinable = {order for _, order in status if order != ANY_ORDER}
    growing = None
    if context.left_deep:
        multi = _growing(status)
        if len(multi) > 1:
            return float("inf")
        growing = multi[0] if multi else frozenset()
    total = 0.0
    while remaining:
        for index, edge in enumerate(remaining):
            if growing and not {edge.parent, edge.child} & growing:
                continue
            if edge.parent in joinable and edge.child in joinable:
                break
        else:
            return float("inf")
        del remaining[index]
        ancestor = cluster_of[edge.parent]
        merged = ancestor | cluster_of[edge.child]
        total += (model.stack_tree_desc(cluster(ancestor))
                  + model.sort(cluster(merged)))
        for node in merged:
            cluster_of[node] = merged
        joinable |= merged
        if context.left_deep:
            growing = merged
    return total


class TestStatusCodes:
    """Every status a walk from the start reaches, on patterns of 2-12
    nodes (a field needs 4 bits from 8 nodes on), with and without an
    ``order_by`` (inner nodes included), in both search spaces."""

    @given(st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=10**6), st.booleans(),
           st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_codes_agree_with_a_frozenset_enumeration(
            self, size, seed, ordered, left_deep, data):
        pattern = random_pattern(random.Random(seed), min_nodes=size,
                                 max_nodes=size,
                                 order_by_chance=float(ordered))
        context = _context(pattern, left_deep)
        derived = _context(pattern, left_deep)
        start = context.start_code
        assert _view(start, pattern) == frozenset(
            (frozenset({node}), node) for node in range(size))
        for _ in range(3):  # walks from the start to a final status
            code, reference = start, _view(start, pattern)
            while True:
                status = Status.from_code(code, pattern)
                assert status.code == code
                assert _view(code, pattern) == reference
                assert (code in context.final_codes) == status.is_final()
                moves = possible_moves(code, context)
                expected = _reference_moves(reference, context)
                assert [(edge, algorithm, sort_to, repr(cost),
                         _view(result, pattern))
                        for edge, algorithm, sort_to, cost, result
                        in moves] == expected
                # a child's clusters derived from its parent's are its
                # decoded clusters
                derived.record(code)
                for move in moves:
                    derived.derive(move[4], code, move[0])
                    assert derived.record(move[4]) == \
                        context.record(move[4])
                assert is_doomed(code, context) == _reference_doomed(
                    reference, context, expected)
                assert repr(upper_bound_completion(code, context)) == \
                    repr(_reference_bound(reference, context))
                if not moves:
                    break
                # prefer a live result, so walks reach the deep levels
                live = [index for index, move in enumerate(moves)
                        if not is_doomed(move[4], context)]
                index = data.draw(st.sampled_from(
                    live or range(len(moves))))
                code, reference = moves[index][4], expected[index][4]
