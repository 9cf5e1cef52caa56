"""Exhaustive dynamic programming (Sec. 3.1).

The textbook algorithm adapted to statuses: search proceeds strictly
level by level (Definition 5); every status on a level is expanded
through all its possible moves; when the same status is generated along
several paths only the cheapest is retained.  Guaranteed optimal, and
deliberately unpruned — it is the yardstick DPP is measured against.

The memo maps a status code to ``(cost, previous code, move)``; a
status is an int and a move a plain tuple (:mod:`repro.core.enumeration`),
so a memo hit is one int hash and one float compare.
"""

from __future__ import annotations

from repro.errors import OptimizerError
from repro.core.enumeration import (EnumerationContext, Memo, build_plan,
                                    possible_moves, reconstruct_moves)
from repro.core.optimizer import Optimizer, register
from repro.core.planspace import PRUNE_DOMINATED
from repro.core.plans import PhysicalPlan
from repro.core.stats import OptimizerReport
from repro.core.status import describe_move


@register
class DPOptimizer(Optimizer):
    """Level-wise exhaustive dynamic programming."""

    name = "DP"

    def _search(self, context: EnumerationContext,
                report: OptimizerReport) -> tuple[PhysicalPlan, float]:
        start = context.start_code
        memo: Memo = {start: (context.start_cost(), None, None)}
        frontier = [start]
        generated = 1
        hits = 0
        recorder = self.planspace
        finals = context.final_codes

        for _ in context.pattern.edges:
            next_frontier: list[int] = []
            for status in frontier:
                cost = memo[status][0]
                report.statuses_expanded += 1
                moves = possible_moves(status, context)
                report.plans_considered += len(moves)
                for move in moves:
                    new_cost = cost + move[3]
                    result = move[4]
                    if recorder is not None:
                        recorder.record_candidate(status, move, new_cost,
                                                  context)
                        if result in finals:
                            recorder.record_final_path(
                                memo, status, describe_move(move),
                                move)
                    existing = memo.get(result)
                    if existing is None:
                        generated += 1
                        memo[result] = (new_cost, status, move)
                        next_frontier.append(result)
                        context.derive(result, status, move[0])
                    else:
                        hits += 1
                        if new_cost < existing[0]:
                            if recorder is not None:
                                recorder.record_prune(
                                    result, PRUNE_DOMINATED, existing[0])
                            memo[result] = (new_cost, status, move)
                        elif recorder is not None:
                            recorder.record_prune(result, PRUNE_DOMINATED,
                                                  new_cost)
            frontier = next_frontier
        report.statuses_generated += generated
        report.memo_hits += hits

        if not frontier:
            raise OptimizerError("search reached no final status")
        best_status = min(frontier, key=lambda status: memo[status][0])
        plan = build_plan(reconstruct_moves(memo, best_status), context)
        if recorder is not None:
            recorder.record_memo(memo)
        return plan, plan.estimated_cost
