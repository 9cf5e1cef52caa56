"""Exhaustive dynamic programming (Sec. 3.1).

The textbook algorithm adapted to statuses: search proceeds strictly
level by level (Definition 5); every status on a level is expanded
through all its possible moves; when the same status is generated along
several paths only the cheapest is retained.  Guaranteed optimal, and
deliberately unpruned — it is the yardstick DPP is measured against.
"""

from __future__ import annotations

from repro.errors import OptimizerError
from repro.core.enumeration import (EnumerationContext, MemoEntry,
                                    build_plan, possible_moves,
                                    reconstruct_moves)
from repro.core.optimizer import Optimizer, register
from repro.core.planspace import PRUNE_DOMINATED
from repro.core.plans import PhysicalPlan
from repro.core.stats import OptimizerReport
from repro.core.status import Status


@register
class DPOptimizer(Optimizer):
    """Level-wise exhaustive dynamic programming."""

    name = "DP"

    def _search(self, context: EnumerationContext,
                report: OptimizerReport) -> tuple[PhysicalPlan, float]:
        start = Status.start(context.pattern)
        memo: dict[Status, MemoEntry] = {
            start: MemoEntry(context.start_cost(), None, None)}
        frontier = [start]
        report.statuses_generated += 1
        recorder = self.planspace

        for _ in context.pattern.edges:
            next_frontier: list[Status] = []
            for status in frontier:
                entry = memo[status]
                report.statuses_expanded += 1
                for move in possible_moves(status, context):
                    report.plans_considered += 1
                    new_cost = entry.cost + move.cost
                    if recorder is not None:
                        recorder.record_candidate(status, move, new_cost,
                                                  context)
                        if move.result.is_final():
                            recorder.record_final_path(
                                memo, status, move.describe(), move)
                    existing = memo.get(move.result)
                    if existing is None:
                        report.statuses_generated += 1
                        memo[move.result] = MemoEntry(new_cost, status,
                                                      move)
                        next_frontier.append(move.result)
                    else:
                        report.memo_hits += 1
                        if new_cost < existing.cost:
                            if recorder is not None:
                                recorder.record_prune(
                                    move.result, PRUNE_DOMINATED,
                                    existing.cost)
                            memo[move.result] = MemoEntry(new_cost,
                                                          status, move)
                        elif recorder is not None:
                            recorder.record_prune(move.result,
                                                  PRUNE_DOMINATED, new_cost)
            frontier = next_frontier

        if not frontier:
            raise OptimizerError("search reached no final status")
        best_status = min(frontier, key=lambda status: memo[status].cost)
        plan = build_plan(reconstruct_moves(memo, best_status), context)
        if recorder is not None:
            recorder.record_memo(memo)
        return plan, plan.estimated_cost
