"""Unit tests for move generation, deadends, ubCost and plan building."""

import pytest

from repro.core.cost import CostModel
from repro.core.enumeration import (EnumerationContext, build_plan,
                                    is_doomed, possible_moves,
                                    upper_bound_completion)
from repro.core.pattern import QueryPattern
from repro.core.plans import JoinAlgorithm, SortPlan, validate_plan
from repro.core.status import ANY_ORDER, Move, Status, StatusNode
from repro.estimation.estimator import ExactEstimator


@pytest.fixture
def context(small_document, running_example_pattern):
    return EnumerationContext(running_example_pattern, CostModel(),
                              ExactEstimator(small_document))


@pytest.fixture
def chain_context(small_document, chain_pattern):
    return EnumerationContext(chain_pattern, CostModel(),
                              ExactEstimator(small_document))


# -- the literal rules of Sec. 3, on status views: the oracles the
# search's code-level move set and Lookahead test are checked against


def edge_eligible(status, edge):
    """Can *edge* be joined without re-sorting either input?

    The stack-tree algorithms need the ancestor-side input ordered by
    the ancestor node and the descendant-side input ordered by the
    descendant node.  Singleton clusters (index scans) are ordered by
    their own node, so they are always eligible.  No cluster is ordered
    by two nodes, so an edge whose endpoints are both ``ordered_by``
    nodes also joins two different clusters.
    """
    ends = 1 << edge.parent | 1 << edge.child
    return status.ordered_nodes & ends == ends


def is_deadend(status, pattern):
    """Definition 6: a non-final status with no possible moves."""
    if status.is_final():
        return False
    return not any(edge_eligible(status, edge)
                   for edge in status.remaining_edges(pattern))


def left_deep_allows(status, edge):
    """DPAP-LD rule: moves must extend the single *growing node* — the
    one multi-node cluster; any edge before the first join."""
    growing = [mask for mask, _ in status.key if mask & (mask - 1)]
    if not growing:
        return True
    if len(growing) > 1:
        return False
    (mask,) = growing
    return (mask >> edge.parent & 1) != (mask >> edge.child & 1)


def status_of(*clusters):
    return Status(frozenset(
        StatusNode(frozenset(nodes), order) for nodes, order in clusters))


def moves_of(status, context):
    """:func:`possible_moves` of a status view, as move views."""
    return [Move(*move[:4], Status.from_code(move[4], context.pattern))
            for move in possible_moves(status.code, context)]


class TestEligibility:
    def test_singletons_always_eligible(self, running_example_pattern):
        start = Status.start(running_example_pattern)
        for edge in running_example_pattern.edges:
            assert edge_eligible(start, edge)

    def test_wrong_cluster_order_blocks_edge(self, running_example_pattern):
        # cluster {0,1} ordered by 1: edge (0,3) needs order by 0
        status = status_of(({0, 1}, 1), ({2}, 2), ({3}, 3), ({4}, 4),
                           ({5}, 5))
        edge = running_example_pattern.edge_between(0, 3)
        assert not edge_eligible(status, edge)
        edge12 = running_example_pattern.edge_between(1, 2)
        assert edge_eligible(status, edge12)


class TestPossibleMoves:
    def test_start_moves_cover_all_edges(self, context):
        moves = moves_of(Status.start(context.pattern), context)
        edges = {(move.edge.parent, move.edge.child) for move in moves}
        assert edges == {(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)}

    def test_move_alternatives_per_edge(self, context):
        moves = moves_of(Status.start(context.pattern), context)
        on_01 = [move for move in moves
                 if (move.edge.parent, move.edge.child) == (0, 1)]
        # STD (order 1), STA (order 0), STD+sort->0: merged has 2 nodes
        assert len(on_01) == 3
        algorithms = {(move.algorithm, move.sort_to) for move in on_01}
        assert (JoinAlgorithm.STACK_TREE_DESC, None) in algorithms
        assert (JoinAlgorithm.STACK_TREE_ANC, None) in algorithms
        assert (JoinAlgorithm.STACK_TREE_DESC, 0) in algorithms

    def test_costs_follow_cost_model(self, context):
        moves = moves_of(Status.start(context.pattern), context)
        model = context.cost_model
        anc_card = context.cards.node(0)
        merged = context.cards.cluster(frozenset({0, 1}))
        for move in moves:
            if (move.edge.parent, move.edge.child) != (0, 1):
                continue
            if move.algorithm is JoinAlgorithm.STACK_TREE_ANC:
                assert move.cost == pytest.approx(
                    model.stack_tree_anc(anc_card, merged))
            elif move.sort_to is None:
                assert move.cost == pytest.approx(
                    model.stack_tree_desc(anc_card))
            else:
                assert move.cost == pytest.approx(
                    model.stack_tree_desc(anc_card) + model.sort(merged))

    def test_final_move_canonicalizes_order(self, chain_context):
        # status one move away from final
        status = status_of(({0, 1}, 1), ({2}, 2))
        moves = moves_of(status, chain_context)
        assert moves, "edge (1,2) should be eligible"
        for move in moves:
            assert move.result.is_final()
            (cluster,) = move.result.clusters
            assert cluster.ordered_by == ANY_ORDER

    def test_final_move_respects_order_by(self, small_document):
        pattern = QueryPattern.build({
            "nodes": ["manager", "employee", "name"],
            "edges": [(0, 1, "//"), (1, 2, "/")],
            "order_by": 0,
        })
        context = EnumerationContext(pattern, CostModel(),
                                     ExactEstimator(small_document))
        status = status_of(({0, 1}, 1), ({2}, 2))
        moves = moves_of(status, context)
        model = context.cost_model
        for move in moves:
            (cluster,) = move.result.clusters
            assert cluster.ordered_by == 0
            if move.algorithm is JoinAlgorithm.STACK_TREE_DESC:
                # native order is node 2; a final sort to 0 is charged
                assert move.sort_to == 0
                assert move.cost > model.stack_tree_desc(
                    context.cards.cluster(frozenset({0, 1})))

    def test_left_deep_filter(self, context, small_document):
        status = status_of(({0, 1}, 0), ({2}, 2), ({3}, 3), ({4}, 4),
                           ({5}, 5))
        all_moves = moves_of(status, context)
        left_deep = moves_of(status, EnumerationContext(
            context.pattern, CostModel(), ExactEstimator(small_document),
            left_deep=True))
        assert {(m.edge.parent, m.edge.child) for m in left_deep} <= {
            (0, 3), (1, 2)}
        assert any((m.edge.parent, m.edge.child) == (4, 5)
                   for m in all_moves)
        assert not any((m.edge.parent, m.edge.child) == (4, 5)
                       for m in left_deep)


class TestDeadends:
    def test_start_never_deadend(self, context):
        start = Status.start(context.pattern)
        assert not is_deadend(start, context.pattern)
        assert not is_doomed(start.code, context)

    def test_definition6_deadend(self, chain_context):
        # {1,2} ordered by 2; edge (0,1) needs order by 1 -> no moves
        status = status_of(({1, 2}, 2), ({0}, 0))
        assert is_deadend(status, chain_context.pattern)
        assert is_doomed(status.code, chain_context)
        assert possible_moves(status.code, chain_context) == []

    def test_doomed_but_not_deadend(self, context):
        # Q.Pers-style trap: {0,3} ordered by 3 can never serve edges
        # (0,1); but edge (1,2) is still joinable -> not a Def. 6
        # deadend, yet unsalvageable.
        status = status_of(({0, 3}, 3), ({1}, 1), ({2}, 2), ({4}, 4),
                           ({5}, 5))
        # adjust: pattern edges are (0,1),(1,2),(0,3),(3,4),(4,5);
        # cluster {0,3} ordered by 3 can still serve (3,4).
        assert not is_doomed(status.code, context)
        status2 = status_of(({3, 4}, 4), ({0}, 0), ({1}, 1), ({2}, 2),
                            ({5}, 5))
        # {3,4} ordered by 4 serves (4,5) -> fine
        assert not is_doomed(status2.code, context)
        status3 = status_of(({3, 4, 5}, 5), ({0}, 0), ({1}, 1), ({2}, 2))
        # {3,4,5} ordered by 5 has only remaining adjacent edge (0,3)
        # which needs order by 3 -> doomed, though (0,1) is joinable.
        assert is_doomed(status3.code, context)
        assert not is_deadend(status3, context.pattern)

    def test_final_not_deadend(self, context):
        final = Status(frozenset({StatusNode(frozenset(range(6)),
                                             ANY_ORDER)}))
        assert not is_deadend(final, context.pattern)
        assert not is_doomed(final.code, context)


class TestLeftDeepAllows:
    def test_first_join_free(self, context):
        start = Status.start(context.pattern)
        for edge in context.pattern.edges:
            assert left_deep_allows(start, edge)

    def test_only_growing_extensions(self, context):
        status = status_of(({0, 1}, 0), ({2}, 2), ({3}, 3), ({4}, 4),
                           ({5}, 5))
        pattern = context.pattern
        assert left_deep_allows(status, pattern.edge_between(0, 3))
        assert left_deep_allows(status, pattern.edge_between(1, 2))
        assert not left_deep_allows(status, pattern.edge_between(4, 5))


class TestUpperBound:
    def test_final_status_zero(self, context):
        final = Status(frozenset({StatusNode(frozenset(range(6)),
                                             ANY_ORDER)}))
        assert upper_bound_completion(final.code, context) == 0.0

    def test_positive_for_start(self, context):
        start = Status.start(context.pattern)
        assert upper_bound_completion(start.code, context) > 0.0

    def test_upper_bounds_optimal_completion(self, context,
                                             small_document):
        """Cost + ubCost of the start status must be >= the optimal
        full plan cost found by exhaustive DP."""
        from repro.core.dp import DPOptimizer

        start = Status.start(context.pattern)
        bound = (context.start_cost()
                 + upper_bound_completion(start.code, context))
        result = DPOptimizer().optimize(context.pattern,
                                        ExactEstimator(small_document))
        assert bound >= result.estimated_cost

    def test_doomed_status_unbounded(self, chain_context):
        status = status_of(({1, 2}, 2), ({0}, 0))
        assert upper_bound_completion(status.code, chain_context) == float(
            "inf")


class TestBuildPlan:
    def test_plan_from_moves(self, chain_context):
        start = Status.start(chain_context.pattern)
        first = next(
            move for move in possible_moves(start.code, chain_context)
            if (move[0].parent, move[0].child) == (0, 1)
            and move[1] is JoinAlgorithm.STACK_TREE_DESC
            and move[2] is None)
        second = possible_moves(first[4], chain_context)[0]
        plan = build_plan([first, second], chain_context)
        validate_plan(plan, chain_context.pattern)
        assert plan.join_count() == 2

    def test_plan_with_sort_move(self, chain_context):
        start = Status.start(chain_context.pattern)
        sorted_move = next(
            move for move in possible_moves(start.code, chain_context)
            if (move[0].parent, move[0].child) == (1, 2)
            and move[2] == 1)
        follow = possible_moves(sorted_move[4], chain_context)[0]
        plan = build_plan([sorted_move, follow], chain_context)
        validate_plan(plan, chain_context.pattern)
        assert plan.sort_count() == 1
        assert any(isinstance(node, SortPlan) for node in plan.walk())
