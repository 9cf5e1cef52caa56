"""Shared plan-enumeration machinery.

Everything the five optimizers have in common lives here: the
per-query :class:`EnumerationContext` (pattern + cost model +
cardinality cache + which search space is being searched), the memo
entry and back-pointer walk DP and DPP share, and the translation of a
winning move sequence back into a
:class:`~repro.core.plans.PhysicalPlan`.

The search space is one definition read from the context.  Which moves
exist (``possible_moves``), which statuses can no longer reach a final
one (``is_doomed``, the Lookahead Rule's test) and what a feasible
completion costs (``upper_bound_completion``, the ``ubCost`` that
orders DPP's queue and seeds its Pruning Rule) must agree, or a search
prunes against plans it can never build: all three take ``(status,
context)`` and read ``context.left_deep`` — the full space of Sec. 3.1
when false, Sec. 3.3.2's left-deep restriction when true.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import OptimizerError, PlanError
from repro.core.cost import CostModel
from repro.core.pattern import PatternEdge, QueryPattern
from repro.core.plans import (IndexScanPlan, JoinAlgorithm, PhysicalPlan,
                              SortPlan, StructuralJoinPlan)
from repro.core.status import ANY_ORDER, Move, Status, StatusNode
from repro.estimation.estimator import (CardinalityEstimator,
                                        PatternCardinalities)


class EnumerationContext:
    """Per-optimize-call bundle: pattern, cost model, cached estimates
    and the search space — every status when ``left_deep`` is false,
    only those with a single growing cluster when it is true."""

    def __init__(self, pattern: QueryPattern, cost_model: CostModel,
                 estimator: CardinalityEstimator,
                 left_deep: bool = False) -> None:
        self.pattern = pattern
        self.cost_model = cost_model
        self.left_deep = left_deep
        self.cards = PatternCardinalities(pattern, estimator)
        self._depths = self._node_depths()
        self._remaining: dict[Status, tuple[PatternEdge, ...]] = {}

    def remaining_edges(self, status: "Status") -> tuple[PatternEdge, ...]:
        """Memoized ``status.remaining_edges`` — the hottest query of
        the whole search, shared by move generation, the lookahead
        test and the ubCost bound."""
        cached = self._remaining.get(status)
        if cached is None:
            cached = tuple(status.remaining_edges(self.pattern))
            self._remaining[status] = cached
        return cached

    def _node_depths(self) -> dict[int, int]:
        depths = {self.pattern.root: 0}
        for node_id in self.pattern.walk_preorder():
            for child in self.pattern.children(node_id):
                depths[child] = depths[node_id] + 1
        return depths

    def depth(self, node_id: int) -> int:
        return self._depths[node_id]

    def start_cost(self) -> float:
        """Index-access cost of retrieving every candidate list.

        Charged on the start status: every plan scans the same indexes,
        so this is a constant offset, but including it keeps estimated
        plan costs comparable with measured execution costs.
        """
        return sum(
            self.cost_model.index_access(self.cards.candidates(node.node_id))
            for node in self.pattern.nodes)


def edge_eligible(status: Status, edge: PatternEdge) -> bool:
    """Can *edge* be joined without re-sorting either input?

    The stack-tree algorithms need the ancestor-side input ordered by
    the ancestor node and the descendant-side input ordered by the
    descendant node.  Singleton clusters (index scans) are ordered by
    their own node, so they are always eligible.
    """
    return (status.cluster_of(edge.parent).ordered_by == edge.parent
            and status.cluster_of(edge.child).ordered_by == edge.child)


def is_deadend(status: Status, pattern: QueryPattern) -> bool:
    """Definition 6: a non-final status with no possible moves."""
    if status.is_final():
        return False
    return not any(edge_eligible(status, edge)
                   for edge in status.remaining_edges(pattern))


def is_doomed(status: Status, context: "EnumerationContext") -> bool:
    """Stronger lookahead: can *status* still reach the final status
    inside *context*'s search space?

    A move may re-sort its *output* to any node, but never an existing
    cluster's input: once a multi-node cluster is ordered by ``w``, the
    first join that consumes it must be on a remaining edge whose
    endpoint inside the cluster is exactly ``w``.  A cluster with no
    such edge can never participate in another join, so the status is
    unsalvageable even if Definition 6's one-step test passes.

    Under ``left_deep`` every further join consumes the single growing
    cluster and its other input is a singleton (always correctly
    ordered), while the merged result may be re-sorted to whatever the
    next edge needs — so a left-deep status is viable exactly when it
    has a move.

    Used as the Lookahead Rule's test (any sound dead-status test keeps
    DPP exact); :func:`is_deadend` remains the literal Definition 6.
    """
    if status.is_final():
        return False
    if not context.left_deep:
        remaining = context.remaining_edges(status)
        for cluster in status.clusters:
            if cluster.is_singleton:
                continue
            satisfiable = any(
                (edge.parent in cluster.nodes
                 and edge.parent == cluster.ordered_by)
                or (edge.child in cluster.nodes
                    and edge.child == cluster.ordered_by)
                for edge in remaining)
            if not satisfiable:
                return True
    return next(_open_edges(status, context), None) is None


def left_deep_allows(status: Status, edge: PatternEdge) -> bool:
    """DPAP-LD rule: moves must extend the single *growing node*."""
    growing = status.growing_nodes()
    if not growing:
        return True  # the first join creates the growing node
    if len(growing) > 1:
        return False
    cluster = growing[0]
    return (edge.parent in cluster.nodes) != (edge.child in cluster.nodes)


def _open_edges(status: Status,
                context: EnumerationContext) -> Iterator[PatternEdge]:
    """The remaining edges a move may evaluate from *status*: joinable
    without re-sorting an input and, in the left-deep space, extending
    the growing cluster.  Move generation and the doom test both read
    this, so they cannot disagree on which moves exist."""
    for edge in context.remaining_edges(status):
        if edge_eligible(status, edge) and (
                not context.left_deep or left_deep_allows(status, edge)):
            yield edge


def possible_moves(status: Status,
                   context: EnumerationContext) -> list[Move]:
    """All moves from *status* in *context*'s search space (pM(S) of
    Sec. 3.1.1).

    For every eligible remaining edge ``(u, v)`` the alternatives are:

    * Stack-Tree-Desc, output ordered by ``v``;
    * Stack-Tree-Anc, output ordered by ``u``;
    * Stack-Tree-Desc followed by a sort to any other node of the
      merged cluster (including ``u`` — sometimes cheaper than STA).

    A move that completes the pattern canonicalizes the final ordering:
    to the query's ``order_by`` (charging a final sort if the native
    order differs), or to ``ANY_ORDER`` when the query is unordered.
    """
    pattern = context.pattern
    cost_model = context.cost_model
    moves: list[Move] = []
    for edge in _open_edges(status, context):
        ancestor_cluster = status.cluster_of(edge.parent)
        descendant_cluster = status.cluster_of(edge.child)
        merged_nodes = ancestor_cluster.nodes | descendant_cluster.nodes
        ancestor_card = context.cards.cluster(ancestor_cluster.nodes)
        merged_card = context.cards.cluster(merged_nodes)
        other_clusters = frozenset(
            cluster for cluster in status.clusters
            if cluster not in (ancestor_cluster, descendant_cluster))
        is_final = len(merged_nodes) == len(pattern)

        def emit(algorithm: JoinAlgorithm, native_order: int,
                 join_cost: float, sort_to: int | None = None) -> None:
            cost = join_cost
            order = native_order
            if sort_to is not None:
                cost += cost_model.sort(merged_card)
                order = sort_to
            if is_final:
                if pattern.order_by is None:
                    order = ANY_ORDER
                    sort_to = None
                elif order != pattern.order_by:
                    sort_to = pattern.order_by
                    cost += cost_model.sort(merged_card)
                    order = pattern.order_by
            merged = StatusNode(merged_nodes, order)
            result = Status(other_clusters | frozenset((merged,)))
            moves.append(Move(edge=edge, algorithm=algorithm,
                              sort_to=sort_to, cost=cost, result=result))

        desc_cost = cost_model.stack_tree_desc(ancestor_card)
        anc_cost = cost_model.stack_tree_anc(ancestor_card, merged_card)
        emit(JoinAlgorithm.STACK_TREE_DESC, edge.child, desc_cost)
        emit(JoinAlgorithm.STACK_TREE_ANC, edge.parent, anc_cost)
        if not is_final:
            for target in merged_nodes:
                if target != edge.child:
                    emit(JoinAlgorithm.STACK_TREE_DESC, edge.child,
                         desc_cost, sort_to=target)
    return moves


def upper_bound_completion(status: Status,
                           context: EnumerationContext) -> float:
    """ubCost (Sec. 3.2): upper-bound cost to reach the final status.

    The bound is the cost of one *feasible* completion, built greedily:
    repeatedly join a remaining edge whose two sides are currently
    joinable — a side is joinable if it is a singleton, if its fixed
    ordering matches the edge endpoint, or if it was merged during this
    completion (every merged result is charged a sort, so its order is
    freely re-chosen).  Each join is charged Stack-Tree-Desc plus that
    sort on the estimated cluster cardinalities.

    Because the completion is achievable, ``Cost + ubCost`` of any
    live status is the cost of a real full plan — DPP seeds its
    pruning threshold from it, which is what confines the search to
    the paper's "narrow band along the optimal path".  Achievable
    means achievable *in the space being searched*: under
    ``left_deep``, once a multi-node cluster exists (in *status*, or
    merged by the completion's own first join) only edges touching it
    are picked, so the completion is itself a left-deep plan — a
    bushy bound would let DPAP-LD prune every left-deep status.
    Unsalvageable statuses (see :func:`is_doomed`) get ``inf``.
    """
    cost_model = context.cost_model
    remaining = list(context.remaining_edges(status))
    if not remaining:
        return 0.0
    representative: dict[int, int] = {}
    members: dict[int, frozenset[int]] = {}
    cardinality: dict[int, float] = {}
    ordering: dict[int, int] = {}
    reorderable: dict[int, bool] = {}
    for cluster in status.clusters:
        rep = min(cluster.nodes)
        for node_id in cluster.nodes:
            representative[node_id] = rep
        members[rep] = cluster.nodes
        cardinality[rep] = context.cards.cluster(cluster.nodes)
        ordering[rep] = cluster.ordered_by
        reorderable[rep] = False

    def joinable(rep: int, endpoint: int) -> bool:
        return reorderable[rep] or ordering[rep] == endpoint

    # left-deep only: the one multi-node cluster every join must extend
    growing: int | None = None
    if context.left_deep:
        multi = [rep for rep, nodes in members.items() if len(nodes) > 1]
        if len(multi) > 1:
            return float("inf")
        growing = multi[0] if multi else None

    total = 0.0
    while remaining:
        chosen = None
        for index, edge in enumerate(remaining):
            anc_rep = representative[edge.parent]
            desc_rep = representative[edge.child]
            if growing is not None and growing not in (anc_rep, desc_rep):
                continue
            if (joinable(anc_rep, edge.parent)
                    and joinable(desc_rep, edge.child)):
                chosen = index
                break
        if chosen is None:
            return float("inf")  # doomed status: no feasible completion
        edge = remaining.pop(chosen)
        anc_rep = representative[edge.parent]
        desc_rep = representative[edge.child]
        merged_nodes = members[anc_rep] | members[desc_rep]
        merged_card = context.cards.cluster(merged_nodes)
        total += (cost_model.stack_tree_desc(cardinality[anc_rep])
                  + cost_model.sort(merged_card))
        for node_id in merged_nodes:
            representative[node_id] = anc_rep
        members[anc_rep] = merged_nodes
        cardinality[anc_rep] = merged_card
        reorderable[anc_rep] = True
        if context.left_deep:
            growing = anc_rep
    return total


@dataclass
class MemoEntry:
    """Best known way to reach a status: DP's and DPP's memo is one
    ``dict[Status, MemoEntry]`` (a status's level is a function of the
    status, so DP needs no table per level)."""

    cost: float
    previous: Status | None
    move: Move | None


def reconstruct_moves(memo: dict[Status, MemoEntry],
                      status: Status) -> list[Move]:
    """Walk *memo*'s back-pointers from *status* to the start status;
    the moves of its cheapest known path, in evaluation order."""
    moves: list[Move] = []
    while True:
        entry = memo[status]
        if entry.move is None:
            break
        moves.append(entry.move)
        if entry.previous is None:
            raise OptimizerError("broken back-pointer chain")
        status = entry.previous
    moves.reverse()
    return moves


def build_plan(moves: list[Move],
               context: EnumerationContext) -> PhysicalPlan:
    """Translate a start-to-final move sequence into a physical plan,
    priced by :func:`estimate_plan_cost`."""
    plans: dict[frozenset[int], PhysicalPlan] = {
        frozenset((node.node_id,)): IndexScanPlan(node.node_id)
        for node in context.pattern.nodes}
    for move in moves:
        ancestor_key = _key_containing(plans, move.edge.parent)
        descendant_key = _key_containing(plans, move.edge.child)
        plan: PhysicalPlan = StructuralJoinPlan(
            plans.pop(ancestor_key), plans.pop(descendant_key),
            move.edge.parent, move.edge.child,
            move.edge.axis, move.algorithm)
        if move.sort_to is not None:
            plan = SortPlan(plan, move.sort_to)
        plans[ancestor_key | descendant_key] = plan

    if len(plans) != 1:
        raise OptimizerError(
            f"move sequence left {len(plans)} fragments, expected 1")
    plan = next(iter(plans.values()))
    estimate_plan_cost(plan, context)
    return plan


def _key_containing(plans: dict[frozenset[int], PhysicalPlan],
                    node_id: int) -> frozenset[int]:
    for key in plans:
        if node_id in key:
            return key
    raise OptimizerError(f"no plan fragment binds node {node_id}")


def estimate_plan_cost(plan: PhysicalPlan,
                       context: EnumerationContext) -> float:
    """Price *plan* under *context* and annotate every node with its
    estimated cardinality and cumulative cost; returns the total.

    This is the one bottom-up pricing walk: the optimizers' winners,
    random plans (input sorts the status search never generates
    included) and plans rebuilt from a logged digest all get their
    ``estimated_cost`` here.
    """
    return _price(plan, context.cards, (context.cost_model,))[0]


def plan_cost_by_family(plan: PhysicalPlan, context: EnumerationContext
                        ) -> tuple[float, dict[str, float]]:
    """:func:`estimate_plan_cost`'s total together with its split
    across the four Sec. 2.2.2 counter families — the same walk, run
    under the cost model and its :meth:`~CostModel.by_family` views at
    once, so the split sums to the total and shares its annotations."""
    views = context.cost_model.by_family()
    total, *shares = _price(plan, context.cards,
                            (context.cost_model, *views.values()))
    return total, dict(zip(views, shares))


def _price(plan: PhysicalPlan, cards: PatternCardinalities,
           models: tuple[CostModel, ...]) -> list[float]:
    """Cumulative cost of *plan* under each of *models*; the
    annotations written are those of ``models[0]``."""
    if isinstance(plan, IndexScanPlan):
        cardinality = cards.node(plan.node_id)
        items = cards.candidates(plan.node_id)
        totals = [model.index_access(items) for model in models]
    elif isinstance(plan, SortPlan):
        below = _price(plan.child, cards, models)
        cardinality = plan.child.estimated_cardinality
        totals = [cost + model.sort(cardinality)
                  for cost, model in zip(below, models)]
    elif isinstance(plan, StructuralJoinPlan):
        ancestor = _price(plan.ancestor_plan, cards, models)
        descendant = _price(plan.descendant_plan, cards, models)
        ancestor_card = plan.ancestor_plan.estimated_cardinality
        cardinality = cards.cluster(plan.pattern_nodes())
        totals = [a + d + model.join(plan.algorithm, ancestor_card,
                                     cardinality)
                  for a, d, model in zip(ancestor, descendant, models)]
    else:
        raise PlanError(f"unknown plan node {type(plan).__name__}")
    plan.estimated_cardinality = cardinality
    plan.estimated_cost = totals[0]
    return totals
