"""Fully-pipelined plan selection (Sec. 3.4).

Theorem 3.1 guarantees that every pattern has a sort-free
(fully-pipelined) plan producing results ordered by any chosen node.
The FP algorithm enumerates exactly that space:

for each candidate result-order node ``r`` (or only the query's
``order_by``), the pattern is "picked up" at ``r``; each neighbor
subtree is solved recursively for the best FP plan ordered by its own
root; then the subtree plans are joined with ``r``'s candidate set in
the best permutation.  Each join is forced to keep the accumulating
cluster ordered by ``r``'s side: when ``r``'s side is the structural
ancestor the join must be Stack-Tree-Anc, otherwise Stack-Tree-Desc —
so no sort ever appears and the plan pipelines end to end.

Sub-solutions are memoized on (node, excluded neighbor), so work is
shared across the candidate roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from repro.errors import OptimizerError
from repro.core.enumeration import EnumerationContext, estimate_plan_cost
from repro.core.optimizer import Optimizer, register
from repro.core.planspace import PRUNE_DOMINATED
from repro.core.plans import (IndexScanPlan, JoinAlgorithm, PhysicalPlan,
                              StructuralJoinPlan)
from repro.core.stats import OptimizerReport


@dataclass
class _SubPlan:
    """Best FP plan of one pattern component, ordered by its root."""

    plan: PhysicalPlan
    cost: float
    cardinality: float
    nodes: frozenset[int]


@register
class FPOptimizer(Optimizer):
    """Enumerates only fully-pipelined plans; optimal among them."""

    name = "FP"

    def _search(self, context: EnumerationContext,
                report: OptimizerReport) -> tuple[PhysicalPlan, float]:
        pattern = context.pattern
        memo: dict[tuple[int, int | None], _SubPlan] = {}
        recorder = self.planspace

        def scan_subplan(node_id: int) -> _SubPlan:
            cost = context.cost_model.index_access(
                context.cards.candidates(node_id))
            return _SubPlan(IndexScanPlan(node_id), cost,
                            context.cards.node(node_id),
                            frozenset((node_id,)))

        def best_ordered(node_id: int, exclude: int | None) -> _SubPlan:
            """Best FP plan for node_id's component (minus the neighbor
            *exclude*), producing output ordered by *node_id*."""
            key = (node_id, exclude)
            cached = memo.get(key)
            if cached is not None:
                report.memo_hits += 1
                return cached
            neighbors = [neighbor for neighbor in pattern.neighbors(node_id)
                         if neighbor != exclude]
            base = scan_subplan(node_id)
            if not neighbors:
                memo[key] = base
                return base
            subplans = [best_ordered(neighbor, node_id)
                        for neighbor in neighbors]
            fixed_cost = base.cost + sum(sub.cost for sub in subplans)
            best_order: tuple[int, ...] | None = None
            best_total = float("inf")
            for order in permutations(range(len(neighbors))):
                report.plans_considered += 1
                total = fixed_cost
                current_nodes = base.nodes
                for index in order:
                    sub = subplans[index]
                    merged_nodes = current_nodes | sub.nodes
                    merged_card = context.cards.cluster(merged_nodes)
                    edge = pattern.edge_between(node_id, neighbors[index])
                    if edge is None:
                        raise OptimizerError("pattern neighbor without edge")
                    if edge.parent == node_id:
                        total += context.cost_model.stack_tree_anc(
                            context.cards.cluster(current_nodes),
                            merged_card)
                    else:
                        total += context.cost_model.stack_tree_desc(
                            sub.cardinality)
                    current_nodes = merged_nodes
                if recorder is not None:
                    recorder.record_permutation(node_id, exclude, order,
                                                total)
                if total < best_total:
                    best_total = total
                    best_order = order
                elif recorder is not None:
                    recorder.record_prune(f"fp({node_id},{exclude}) order "
                                          + ",".join(map(str, order)),
                                          PRUNE_DOMINATED, total)
            assert best_order is not None
            result = self._assemble(context, base, neighbors, subplans,
                                    best_order, node_id, best_total)
            memo[key] = result
            return result

        if pattern.order_by is not None:
            roots = [pattern.order_by]
        else:
            roots = [node.node_id for node in pattern.nodes]
        best: _SubPlan | None = None
        for root in roots:
            candidate = best_ordered(root, None)
            if recorder is not None:
                estimate_plan_cost(candidate.plan, context)
                recorder.record_final_plan(candidate.plan, candidate.cost,
                                           note=f"ordered by {root}")
            if best is None or candidate.cost < best.cost:
                best = candidate
        assert best is not None
        if recorder is not None:
            for key, sub in memo.items():
                recorder.record_memo_entry(f"fp{key}", sub.cost,
                                           len(sub.nodes) - 1)
        estimate_plan_cost(best.plan, context)
        return best.plan, best.cost

    @staticmethod
    def _assemble(context: EnumerationContext, base: _SubPlan,
                  neighbors: list[int], subplans: list[_SubPlan],
                  order: tuple[int, ...], node_id: int,
                  total_cost: float) -> _SubPlan:
        """Build the plan tree for the winning permutation; ``_search``
        hands the overall winner to the pricing walk."""
        plan = base.plan
        current_nodes = base.nodes
        for index in order:
            sub = subplans[index]
            edge = context.pattern.edge_between(node_id, neighbors[index])
            assert edge is not None
            if edge.parent == node_id:
                plan = StructuralJoinPlan(
                    plan, sub.plan, edge.parent, edge.child, edge.axis,
                    JoinAlgorithm.STACK_TREE_ANC)
            else:
                plan = StructuralJoinPlan(
                    sub.plan, plan, edge.parent, edge.child, edge.axis,
                    JoinAlgorithm.STACK_TREE_DESC)
            current_nodes = current_nodes | sub.nodes
        return _SubPlan(plan, total_cost,
                        context.cards.cluster(current_nodes), current_nodes)
