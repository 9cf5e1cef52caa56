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

All three work on node masks (see :mod:`repro.core.status`): a cluster
is an int, joining two is ``|``, and a cluster's cardinality is one
lookup in the context's :class:`PatternCardinalities`.  The doom test
and ``ubCost`` are pure functions of the status, so the context
memoises both per status; it lives for one ``optimize()`` call.  The
order in which ``possible_moves`` emits moves is part of the contract:
DPP's heap breaks cost ties by emission count and DP keeps the first of
equally cheap paths, so reordering the moves changes which plan wins a
tie.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OptimizerError, PlanError
from repro.core.cost import CostModel
from repro.core.pattern import PatternEdge, QueryPattern, mask_nodes
from repro.core.plans import (IndexScanPlan, JoinAlgorithm, PhysicalPlan,
                              SortPlan, StructuralJoinPlan)
from repro.core.status import ANY_ORDER, Move, Status
from repro.estimation.estimator import (CardinalityEstimator,
                                        PatternCardinalities)


class EnumerationContext:
    """Per-optimize-call bundle: pattern, cost model, cached estimates
    and the search space — every status when ``left_deep`` is false,
    only those with a single growing cluster when it is true — plus
    the per-status memo tables of the search functions below."""

    def __init__(self, pattern: QueryPattern, cost_model: CostModel,
                 estimator: CardinalityEstimator,
                 left_deep: bool = False) -> None:
        self.pattern = pattern
        self.cost_model = cost_model
        self.left_deep = left_deep
        self.cards = PatternCardinalities(pattern, estimator)
        self._eligible: dict[int, tuple[PatternEdge, ...]] = {}
        self._doomed: dict[Status, bool] = {}
        self._bounds: dict[Status, float] = {}

    def eligible_edges(self, ordered: int) -> tuple[PatternEdge, ...]:
        """The edges :func:`edge_eligible` accepts in any status whose
        ``ordered_nodes`` mask is *ordered*, in ``pattern.edges``
        order."""
        cached = self._eligible.get(ordered)
        if cached is None:
            cached = tuple(
                edge for edge, ends in zip(self.pattern.edges,
                                           self.pattern.edge_masks)
                if ordered & ends == ends)
            self._eligible[ordered] = cached
        return cached

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
    their own node, so they are always eligible.  No cluster is ordered
    by two nodes, so an edge whose endpoints are both ``ordered_by``
    nodes also joins two different clusters.
    """
    ends = 1 << edge.parent | 1 << edge.child
    return status.ordered_nodes & ends == ends


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
    endpoint inside the cluster is exactly ``w`` — some neighbor of
    ``w`` must lie outside the cluster.  A cluster with no such edge
    can never participate in another join, so the status is
    unsalvageable even if Definition 6's one-step test passes.

    Under ``left_deep`` every further join consumes the single growing
    cluster and its other input is a singleton (always correctly
    ordered), while the merged result may be re-sorted to whatever the
    next edge needs — so a left-deep status is viable exactly when it
    has a move.

    Used as the Lookahead Rule's test (any sound dead-status test keeps
    DPP exact); :func:`is_deadend` remains the literal Definition 6.
    Memoised per status on *context*.
    """
    doomed = context._doomed.get(status)
    if doomed is None:
        doomed = context._doomed[status] = _is_doomed(status, context)
    return doomed


def _is_doomed(status: Status, context: EnumerationContext) -> bool:
    if status.is_final():
        return False
    if not context.left_deep:
        adjacency = context.pattern.adjacency
        for mask, order in status.key:
            if mask & (mask - 1) and (order == ANY_ORDER
                                      or not adjacency[order] & ~mask):
                return True
    return not _open_edges(status, context)


def _growing(status: Status) -> int | None:
    """The left-deep *growing node*: the mask of the one multi-node
    cluster, 0 before the first join, None when there are several."""
    growing = 0
    for mask, _ in status.key:
        if mask & (mask - 1):
            if growing:
                return None
            growing = mask
    return growing


def _extends(growing: int, edge: PatternEdge) -> bool:
    """Has *edge* exactly one endpoint in the growing node (any edge
    does before the first join)?"""
    return not growing or ((growing >> edge.parent & 1)
                           != (growing >> edge.child & 1))


def left_deep_allows(status: Status, edge: PatternEdge) -> bool:
    """DPAP-LD rule: moves must extend the single *growing node*."""
    growing = _growing(status)
    return growing is not None and _extends(growing, edge)


def _open_edges(status: Status,
                context: EnumerationContext) -> tuple[PatternEdge, ...]:
    """The remaining edges a move may evaluate from *status*: joinable
    without re-sorting an input and, in the left-deep space, extending
    the growing cluster.  Move generation and the doom test both read
    this, so they cannot disagree on which moves exist."""
    eligible = context.eligible_edges(status.ordered_nodes)
    if not context.left_deep:
        return eligible
    growing = _growing(status)
    if growing is None:
        return ()
    return tuple(edge for edge in eligible if _extends(growing, edge))


def possible_moves(status: Status,
                   context: EnumerationContext) -> list[Move]:
    """All moves from *status* in *context*'s search space (pM(S) of
    Sec. 3.1.1).

    For every eligible remaining edge ``(u, v)``, in ``pattern.edges``
    order, the alternatives are emitted in this order:

    * Stack-Tree-Desc, output ordered by ``v``;
    * Stack-Tree-Anc, output ordered by ``u``;
    * Stack-Tree-Desc followed by a sort to each other node of the
      merged cluster, ascending (including ``u`` — sometimes cheaper
      than STA).

    A move that completes the pattern canonicalizes the final ordering:
    to the query's ``order_by`` (charging a final sort if the native
    order differs), or to ``ANY_ORDER`` when the query is unordered.
    """
    order_by = context.pattern.order_by
    cost_model = context.cost_model
    cardinality = context.cards.cluster_cardinality
    desc, anc = JoinAlgorithm.STACK_TREE_DESC, JoinAlgorithm.STACK_TREE_ANC
    # every eligible endpoint is its cluster's ordered_by node
    cluster_by_order = {order: mask for mask, order in status.key}
    completes = len(status.key) == 2
    moves: list[Move] = []
    for edge in _open_edges(status, context):
        ancestor = cluster_by_order[edge.parent]
        descendant = cluster_by_order[edge.child]
        merged = ancestor | descendant
        ancestor_card = cardinality(ancestor)
        merged_card = cardinality(merged)
        desc_cost = cost_model.stack_tree_desc(ancestor_card)
        anc_cost = cost_model.stack_tree_anc(ancestor_card, merged_card)
        if completes:
            for algorithm, order, cost in ((desc, edge.child, desc_cost),
                                           (anc, edge.parent, anc_cost)):
                sort_to = None
                if order_by is None:
                    order = ANY_ORDER
                elif order != order_by:
                    sort_to = order = order_by
                    cost += cost_model.sort(merged_card)
                (final,) = status.merged(ancestor, descendant, (order,))
                moves.append(Move(edge, algorithm, sort_to, cost, final))
            continue
        targets = [node for node in mask_nodes(merged) if node != edge.child]
        by_desc, by_anc, *resorted = status.merged(
            ancestor, descendant, (edge.child, edge.parent, *targets))
        moves.append(Move(edge, desc, None, desc_cost, by_desc))
        moves.append(Move(edge, anc, None, anc_cost, by_anc))
        sort_cost = desc_cost + cost_model.sort(merged_card)
        for target, result in zip(targets, resorted):
            moves.append(Move(edge, desc, target, sort_cost, result))
    return moves


def upper_bound_completion(status: Status,
                           context: EnumerationContext) -> float:
    """ubCost (Sec. 3.2): upper-bound cost to reach the final status.

    The bound is the cost of one *feasible* completion, built greedily:
    repeatedly join the first remaining edge whose two sides are
    currently joinable — a side is joinable if it is a singleton, if
    its fixed ordering matches the edge endpoint, or if it was merged
    during this completion (every merged result is charged a sort, so
    its order is freely re-chosen).  Each join is charged
    Stack-Tree-Desc plus that sort on the estimated cluster
    cardinalities.

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
    Memoised per status on *context*.
    """
    bound = context._bounds.get(status)
    if bound is None:
        bound = context._bounds[status] = _greedy_completion(status,
                                                             context)
    return bound


def _greedy_completion(status: Status,
                       context: EnumerationContext) -> float:
    remaining = list(status.remaining_edges(context.pattern))
    if not remaining:
        return 0.0
    cost_model = context.cost_model
    cardinality = context.cards.cluster_cardinality
    cluster_of: dict[int, int] = {}
    for mask, _ in status.key:
        for node_id in mask_nodes(mask):
            cluster_of[node_id] = mask
    # endpoints a join may use: a fixed cluster's ordered_by node, and
    # every node of a cluster this completion merged
    joinable = status.ordered_nodes

    # left-deep only: the one multi-node cluster every join must extend
    growing: int | None = None
    if context.left_deep:
        growing = _growing(status)
        if growing is None:
            return float("inf")

    total = 0.0
    while remaining:
        for index, edge in enumerate(remaining):
            ends = 1 << edge.parent | 1 << edge.child
            if growing and not growing & ends:
                continue
            if joinable & ends == ends:
                break
        else:
            return float("inf")  # doomed status: no feasible completion
        del remaining[index]
        ancestor = cluster_of[edge.parent]
        merged = ancestor | cluster_of[edge.child]
        merged_card = cardinality(merged)
        total += (cost_model.stack_tree_desc(cardinality(ancestor))
                  + cost_model.sort(merged_card))
        for node_id in mask_nodes(merged):
            cluster_of[node_id] = merged
        joinable |= merged
        if context.left_deep:
            growing = merged
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
