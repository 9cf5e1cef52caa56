"""Shared plan-enumeration machinery.

Everything the five optimizers have in common lives here: the
per-query :class:`EnumerationContext` (pattern + cost model +
cardinality cache + which search space is being searched + the status
code's layout), the back-pointer walk DP and DPP share, and the
translation of a winning move sequence back into a
:class:`~repro.core.plans.PhysicalPlan`.

The search space is one definition read from the context.  Which moves
exist (``possible_moves``), which statuses can no longer reach a final
one (``is_doomed``, the Lookahead Rule's test) and what a feasible
completion costs (``upper_bound_completion``, the ``ubCost`` that
orders DPP's queue and seeds its Pruning Rule) must agree, or a search
prunes against plans it can never build: all three take ``(code,
context)`` and read ``context.left_deep`` — the full space of Sec. 3.1
when false, Sec. 3.3.2's left-deep restriction when true.

All three work on status codes (see :mod:`repro.core.status`): a
status is one int, a move is the plain tuple ``(edge, algorithm,
sort_to, cost, result code)`` and its result is one masked write of
the merged cluster's fields.  The context holds, for one
``optimize()`` call, one record per status code — its clusters,
derived from its parent's (or decoded once), and, once asked, its doom
verdict and ``ubCost``, built together — the field masks of every
merged cluster and the four prices of every ``(ancestor,
descendant)`` pair — made by the same cost-model calls, in the same
order, as before codes, so every float is the same.  The order in which
``possible_moves`` emits moves is part of the contract: DPP's heap
breaks cost ties by emission count and DP keeps the first of equally
cheap paths, so reordering the moves changes which plan wins a tie.
"""

from __future__ import annotations

from repro.errors import OptimizerError, PlanError
from repro.core.cost import CostModel
from repro.core.pattern import PatternEdge, QueryPattern, mask_nodes
from repro.core.plans import (IndexScanPlan, JoinAlgorithm, PhysicalPlan,
                              SortPlan, StructuralJoinPlan)
from repro.core.status import decode, start_code
from repro.estimation.estimator import (CardinalityEstimator,
                                        PatternCardinalities)

#: a move as the search holds it: ``(edge, algorithm, sort_to, cost,
#: result code)``
MoveTuple = tuple[PatternEdge, JoinAlgorithm, "int | None", float, int]
#: a status's record: field value -> cluster node mask, the
#: ``ordered_nodes`` mask, the edges a move may evaluate, whether the
#: status is doomed and its ubCost (the last two ``None`` until
#: :meth:`EnumerationContext.record` is asked for them)
Record = tuple[dict[int, int], int, tuple[PatternEdge, ...], "bool | None",
               "float | None"]
#: DP's and DPP's memo: code -> ``(cost, previous code, move)``, the
#: cheapest known way to reach a status (the start's is ``(cost, None,
#: None)``)
Memo = dict[int, tuple[float, "int | None", "MoveTuple | None"]]


class EnumerationContext:
    """Per-optimize-call bundle: pattern, cost model, cached estimates
    and the search space — every status when ``left_deep`` is false,
    only those with a single growing cluster when it is true — plus
    the status code's layout and one record per status code."""

    def __init__(self, pattern: QueryPattern, cost_model: CostModel,
                 estimator: CardinalityEstimator,
                 left_deep: bool = False) -> None:
        self.pattern = pattern
        self.cost_model = cost_model
        self.left_deep = left_deep
        self.cards = PatternCardinalities(pattern, estimator)
        #: node count; also the field value of ``ANY_ORDER``
        self.size = size = len(pattern)
        self._width = size.bit_length()
        self._ones: dict[int, int] = {}
        self.start_code = start_code(size)
        whole = self.ones((1 << size) - 1)
        #: the codes of the final statuses: every field equal
        self.final_codes = frozenset(whole * value
                                     for value in range(size + 1))
        #: ``(parent, child, endpoint mask)`` per edge, in
        #: ``pattern.edges`` order
        self.edge_ends = tuple(
            (edge.parent, edge.child, ends)
            for edge, ends in zip(pattern.edges, pattern.edge_masks))
        #: status code -> its record (see :meth:`record`)
        self.records: dict[int, Record] = {}
        self._prices: dict[int, tuple[float, float, float, float]] = {}

    def ones(self, mask: int) -> int:
        """The code with a 1 in the field of every node of *mask*: the
        merged cluster of a join ordered by ``o`` is ``ones * o``, and
        its fields are ``ones * (2**b - 1)`` (cached per mask)."""
        ones = self._ones.get(mask)
        if ones is None:
            width = self._width
            ones = self._ones[mask] = sum(1 << width * node
                                          for node in mask_nodes(mask))
        return ones

    def record(self, code: int) -> Record:
        """The whole record of *code*: its clusters (field value to node
        mask, see :func:`~repro.core.status.decode`), its
        ``ordered_nodes`` mask, the edges a move may evaluate from it,
        its doom verdict and its ubCost — decoded once (or derived by
        :meth:`derive`), judged once."""
        record = self.records.get(code)
        if record is not None and record[3] is not None:
            return record
        if record is None:
            clusters = decode(code, self.size)
            ordered = 0
            for value in clusters:
                if value != self.size:
                    ordered |= 1 << value
            edges = _open_edges(ordered, _growing(clusters.values())
                                if self.left_deep else 0, self)
        else:
            clusters, ordered, edges = record[:3]
        record = self.records[code] = self._judged(
            clusters, ordered, edges, _is_doomed(clusters, edges, self))
        return record

    def derive(self, code: int, parent: int, edge: PatternEdge) -> None:
        """Record the clusters of *code*, reached from the recorded
        status *parent* by a join on *edge*, unless *code* is recorded
        already — and nothing else: DP never asks for a verdict."""
        if code not in self.records:
            self.records[code] = (*self._merged(code, parent, edge),
                                   None, None)

    def judge(self, code: int, parent: int, edge: PatternEdge) -> Record:
        """Record the status *code*, not recorded yet, reached from the
        judged status *parent* by one of its moves, a join on *edge*:
        its clusters from *parent*'s, then its doom verdict and ubCost
        from those — once, when DPP first generates it."""
        clusters, ordered, edges = self._merged(code, parent, edge)
        if len(clusters) == 1:
            doomed = False
        elif self.left_deep:
            doomed = not edges
        elif self.records[parent][3] is False:
            # the live parent's other clusters are still live: only the
            # merged one, ordered by a node, can doom the status
            order = code >> self._width * edge.parent & (1 << self._width) - 1
            doomed = not edges or not (self.pattern.adjacency[order]
                                       & ~clusters[order])
        else:
            doomed = _is_doomed(clusters, edges, self)
        record = self.records[code] = self._judged(clusters, ordered,
                                                    edges, doomed)
        return record

    def _merged(self, code: int, parent: int, edge: PatternEdge
                ) -> tuple[dict[int, int], int, tuple[PatternEdge, ...]]:
        """*parent*'s clusters with the two joined ones giving way to
        the merged one, ordered by its field in *code*, and the edges
        open from there — instead of a decode.  The join is one of
        *parent*'s moves, so in the left-deep space the merged cluster
        is the growing one."""
        clusters, ordered = self.records[parent][:2]
        clusters = clusters.copy()
        merged = clusters.pop(edge.parent) | clusters.pop(edge.child)
        order = code >> self._width * edge.parent & (1 << self._width) - 1
        clusters[order] = merged
        ordered &= ~(1 << edge.parent | 1 << edge.child)
        if order != self.size:
            ordered |= 1 << order
        return clusters, ordered, _open_edges(
            ordered, merged if self.left_deep else 0, self)

    def _judged(self, clusters: dict[int, int], ordered: int,
                edges: tuple[PatternEdge, ...], doomed: bool) -> Record:
        # a doomed status has no feasible completion: the greedy one
        # would come back ``inf`` too
        return (clusters, ordered, edges, doomed,
                float("inf") if doomed
                else _greedy_completion(clusters, ordered, self))

    def prices(self, ancestor: int, descendant: int
               ) -> tuple[float, float, float, float]:
        """Joining cluster *ancestor* to cluster *descendant* (node
        masks): Stack-Tree-Desc, Stack-Tree-Anc, Stack-Tree-Desc plus a
        sort of the output, and that sort alone (cached per pair)."""
        key = ancestor << self.size | descendant
        cached = self._prices.get(key)
        if cached is None:
            cost_model = self.cost_model
            cardinality = self.cards.cluster_cardinality
            ancestor_card = cardinality(ancestor)
            merged_card = cardinality(ancestor | descendant)
            desc = cost_model.stack_tree_desc(ancestor_card)
            anc = cost_model.stack_tree_anc(ancestor_card, merged_card)
            sort = cost_model.sort(merged_card)
            cached = self._prices[key] = (desc, anc, desc + sort, sort)
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


def is_doomed(code: int, context: EnumerationContext) -> bool:
    """Stronger lookahead: can the status *code* still reach the final
    status inside *context*'s search space?

    A move may re-sort its *output* to any node, but never an existing
    cluster's input: once a multi-node cluster is ordered by ``w``, the
    first join that consumes it must be on a remaining edge whose
    endpoint inside the cluster is exactly ``w`` — some neighbor of
    ``w`` must lie outside the cluster.  A cluster with no such edge
    can never participate in another join, so the status is
    unsalvageable even if Definition 6's one-step test (a non-final
    status with no move) passes.

    Under ``left_deep`` every further join consumes the single growing
    cluster and its other input is a singleton (always correctly
    ordered), while the merged result may be re-sorted to whatever the
    next edge needs — so a left-deep status is viable exactly when it
    has a move.

    Used as the Lookahead Rule's test (any sound dead-status test keeps
    DPP exact).  Part of *code*'s record on *context*.
    """
    return context.record(code)[3]


def _is_doomed(clusters: dict[int, int], edges: tuple[PatternEdge, ...],
               context: EnumerationContext) -> bool:
    if len(clusters) == 1:
        return False  # final
    if not context.left_deep:
        adjacency = context.pattern.adjacency
        unordered = context.size
        for order, mask in clusters.items():
            if mask & (mask - 1) and (order == unordered
                                      or not adjacency[order] & ~mask):
                return True
    return not edges


def _growing(masks) -> int | None:
    """The left-deep *growing node* among the cluster *masks*: the one
    multi-node cluster, 0 before the first join, None when there are
    several."""
    growing = 0
    for mask in masks:
        if mask & (mask - 1):
            if growing:
                return None
            growing = mask
    return growing


def _open_edges(ordered: int, growing: int | None,
                context: EnumerationContext) -> tuple[PatternEdge, ...]:
    """The remaining edges a move may evaluate from a status with
    ``ordered_nodes`` mask *ordered*: joinable without re-sorting an
    input — both endpoints ordered — and with exactly one endpoint in
    the cluster *growing* when that is not 0 (the left-deep space's
    growing cluster; 0 before its first join and in the full space,
    None when there are several).  Move generation and the doom test
    both read this, so they cannot disagree on which moves exist."""
    if growing is None:
        return ()
    eligible = context.pattern.edges_within(ordered)
    if not growing:
        return eligible
    return tuple(edge for edge in eligible
                 if (growing >> edge.parent & 1)
                 != (growing >> edge.child & 1))


def possible_moves(code: int,
                   context: EnumerationContext) -> list[MoveTuple]:
    """All moves from the status *code* in *context*'s search space
    (pM(S) of Sec. 3.1.1).

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
    # every eligible endpoint is its cluster's ordered_by node, i.e.
    # its field value
    record = context.records.get(code) or context.record(code)
    clusters, edges = record[0], record[2]
    completes = len(clusters) == 2
    desc, anc = JoinAlgorithm.STACK_TREE_DESC, JoinAlgorithm.STACK_TREE_ANC
    size = context.size
    prices, price = context._prices, context.prices
    all_ones, ones_of = context._ones, context.ones
    field = (1 << context._width) - 1
    moves: list[MoveTuple] = []
    for edge in edges:
        parent, child = edge.parent, edge.child
        ancestor = clusters[parent]
        descendant = clusters[child]
        desc_cost, anc_cost, sort_cost, sort = (
            prices.get(ancestor << size | descendant)
            or price(ancestor, descendant))
        merged = ancestor | descendant
        ones = all_ones.get(merged) or ones_of(merged)
        if completes:
            if order_by is None:
                final = ones * size
                moves.append((edge, desc, None, desc_cost, final))
                moves.append((edge, anc, None, anc_cost, final))
            else:
                final = ones * order_by
                if child == order_by:
                    moves.append((edge, desc, None, desc_cost, final))
                else:
                    moves.append((edge, desc, order_by, sort_cost, final))
                if parent == order_by:
                    moves.append((edge, anc, None, anc_cost, final))
                else:
                    moves.append((edge, anc, order_by, anc_cost + sort,
                                  final))
            continue
        rest = code & ~(ones * field)
        moves.append((edge, desc, None, desc_cost, rest | ones * child))
        moves.append((edge, anc, None, anc_cost, rest | ones * parent))
        for target in mask_nodes(merged):
            if target != child:
                moves.append((edge, desc, target, sort_cost,
                              rest | ones * target))
    return moves


def upper_bound_completion(code: int,
                           context: EnumerationContext) -> float:
    """ubCost (Sec. 3.2): upper-bound cost to reach the final status
    from the status *code*.

    The bound is the cost of one *feasible* completion, built greedily:
    repeatedly join the first remaining edge whose two sides are
    currently joinable — a side is joinable if it is a singleton, if
    its fixed ordering matches the edge endpoint, or if it was merged
    during this completion (every merged result is charged a sort, so
    its order is freely re-chosen).  Each join is charged
    Stack-Tree-Desc plus that sort on the estimated cluster
    cardinalities, summed left to right.

    Because the completion is achievable, ``Cost + ubCost`` of any
    live status is the cost of a real full plan — DPP seeds its
    pruning threshold from it, which is what confines the search to
    the paper's "narrow band along the optimal path".  Achievable
    means achievable *in the space being searched*: under
    ``left_deep``, once a multi-node cluster exists (in the status, or
    merged by the completion's own first join) only edges touching it
    are picked, so the completion is itself a left-deep plan — a
    bushy bound would let DPAP-LD prune every left-deep status.
    Unsalvageable statuses (see :func:`is_doomed`) get ``inf``.
    Part of *code*'s record on *context*.
    """
    return context.record(code)[4]


def completed_cost(code: int, cost: float,
                   context: EnumerationContext) -> float:
    """The cost of a full plan that reaches the status *code* at *cost*
    and then takes :func:`upper_bound_completion`'s joins, added to
    *cost* one join at a time — the order the search itself adds move
    costs in.  Each of those joins is a move whose cost is at most the
    one charged here, and float addition is monotone, so the search
    reaches a final status along it at no more than this: a Pruning
    Rule threshold read from here never prunes the search's optimum,
    where ``cost + ubCost`` (summed in another order) may undercut it
    by an ulp."""
    record = context.record(code)
    return _greedy_completion(record[0], record[1], context, cost)


def _greedy_completion(clusters: dict[int, int], joinable: int,
                       context: EnumerationContext,
                       total: float = 0.0) -> float:
    if len(clusters) == 1:
        return total
    # endpoints a join may use: a fixed cluster's ordered_by node
    # (``joinable`` starts as the ordered nodes), and every node of a
    # cluster this completion merged
    cluster_of = [0] * context.size
    for mask in clusters.values():
        for node_id in mask_nodes(mask):
            cluster_of[node_id] = mask
    remaining = [triple for triple in context.edge_ends
                 if cluster_of[triple[0]] != cluster_of[triple[1]]]

    # left-deep only: the one multi-node cluster every join must extend
    left_deep = context.left_deep
    growing: int | None = None
    if left_deep:
        growing = _growing(clusters.values())
        if growing is None:
            return float("inf")

    size = context.size
    prices, price = context._prices, context.prices
    while remaining:
        for index, (parent, child, ends) in enumerate(remaining):
            if growing and not growing & ends:
                continue
            if joinable & ends == ends:
                break
        else:
            return float("inf")  # doomed status: no feasible completion
        del remaining[index]
        ancestor = cluster_of[parent]
        descendant = cluster_of[child]
        total += (prices.get(ancestor << size | descendant)
                  or price(ancestor, descendant))[2]
        merged = ancestor | descendant
        for node_id in mask_nodes(merged):
            cluster_of[node_id] = merged
        joinable |= merged
        if left_deep:
            growing = merged
    return total


def reconstruct_moves(memo: Memo, code: int) -> list[MoveTuple]:
    """Walk *memo*'s back-pointers from the status *code* to the start
    status; the moves of its cheapest known path, in evaluation
    order."""
    moves: list[MoveTuple] = []
    while True:
        _, previous, move = memo[code]
        if move is None:
            break
        moves.append(move)
        if previous is None:
            raise OptimizerError("broken back-pointer chain")
        code = previous
    moves.reverse()
    return moves


def build_plan(moves: list[MoveTuple],
               context: EnumerationContext) -> PhysicalPlan:
    """Translate a start-to-final move sequence into a physical plan,
    priced by :func:`estimate_plan_cost`."""
    plans: dict[frozenset[int], PhysicalPlan] = {
        frozenset((node.node_id,)): IndexScanPlan(node.node_id)
        for node in context.pattern.nodes}
    for edge, algorithm, sort_to, _, _ in moves:
        ancestor_key = _key_containing(plans, edge.parent)
        descendant_key = _key_containing(plans, edge.child)
        plan: PhysicalPlan = StructuralJoinPlan(
            plans.pop(ancestor_key), plans.pop(descendant_key),
            edge.parent, edge.child, edge.axis, algorithm)
        if sort_to is not None:
            plan = SortPlan(plan, sort_to)
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
