"""Dynamic programming with pruning (Sec. 3.2).

Best-first search over statuses, ordered by ``Cost + ubCost``:

* **Expanding Rule** — always expand the un-expanded status with the
  lowest ``Cost + ubCost`` (a priority queue).
* **Pruning Rule** — once a full plan of cost ``MinCost`` is known,
  any status whose accumulated ``Cost`` exceeds ``MinCost`` is dead.
* **Lookahead Rule** — never *generate* a deadend status (Definition
  6).  Disabling this flag yields the DPP' variant of Table 2.

Like DP, DPP conceptually explores the whole space and is exact: the
queue is drained until no status cheaper than the best full plan
remains, and re-discovering a status at lower cost re-queues it (the
ubCost heuristic is an upper bound, not an admissible lower bound, so
the first pop of a status is not necessarily its cheapest path).
"""

from __future__ import annotations

import heapq
import itertools

from repro.errors import OptimizerError
from repro.core.dp import _Entry
from repro.core.enumeration import (EnumerationContext, build_plan,
                                    is_doomed, possible_moves,
                                    upper_bound_completion)
from repro.core.optimizer import Optimizer, register
from repro.core.planspace import (PRUNE_COST_BOUND, PRUNE_DOMINATED,
                                  PRUNE_EXPANSION_BOUND, PRUNE_INFEASIBLE)
from repro.core.plans import PhysicalPlan
from repro.core.stats import OptimizerReport
from repro.core.status import Move, Status


@register
class DPPOptimizer(Optimizer):
    """Best-first exact search with pruning and lookahead."""

    name = "DPP"

    def __init__(self, cost_model=None, lookahead: bool = True,
                 planspace=None) -> None:
        super().__init__(cost_model, planspace=planspace)
        self.lookahead = lookahead

    # -- hooks for the DPAP subclasses ------------------------------------

    def _may_expand(self, status: Status, level: int,
                    report: OptimizerReport) -> bool:
        """Extra expansion gate; DPAP-EB overrides."""
        return True

    def _note_expansion(self, status: Status, level: int) -> None:
        """Called when a status is actually expanded; DPAP-EB overrides."""

    def _moves(self, status: Status,
               context: EnumerationContext) -> list[Move]:
        """Move generation; DPAP-LD overrides to stay left-deep."""
        return possible_moves(status, context)

    def _is_deadend(self, status: Status,
                    context: EnumerationContext) -> bool:
        """Lookahead test; DPAP-LD overrides to match its move set.

        Uses the strengthened :func:`is_doomed` check (any sound dead-
        status test preserves exactness, and the stronger test is what
        makes a per-level expansion bound of 1 always reach a plan).
        """
        return is_doomed(status, context)

    # -- search -------------------------------------------------------------

    def _search(self, context: EnumerationContext,
                report: OptimizerReport) -> tuple[PhysicalPlan, float]:
        pattern = context.pattern
        start = Status.start(pattern)
        start_cost = context.start_cost()

        best: dict[Status, _Entry] = {
            start: _Entry(start_cost, None, None)}
        report.statuses_generated += 1
        recorder = self.planspace
        if recorder is not None:
            recorder.record_event("generate", start, start_cost, "start")
        tie_breaker = itertools.count()
        start_bound = start_cost + upper_bound_completion(start, context)
        heap: list[tuple[float, int, float, Status]] = []
        heapq.heappush(heap, (start_bound, next(tie_breaker), start_cost,
                              start))

        min_final_cost = float("inf")
        # Tightest known achievable full-plan cost: every live status'
        # Cost + ubCost is the cost of a real completion, so it bounds
        # the optimum and seeds the Pruning Rule from the first push.
        best_bound = start_bound
        best_final: Status | None = None

        while heap:
            _, _, queued_cost, status = heapq.heappop(heap)
            entry = best[status]
            if queued_cost > entry.cost:
                continue  # stale queue entry; a cheaper path superseded it
            if entry.cost > min(min_final_cost, best_bound):
                report.statuses_pruned += 1
                if recorder is not None:
                    recorder.record_prune(status, PRUNE_COST_BOUND,
                                          entry.cost, generated=True)
                continue  # Pruning Rule: dead
            if status.is_final():
                continue  # finals are never expanded
            level = status.level(pattern)
            if not self._may_expand(status, level, report):
                if recorder is not None:
                    recorder.record_prune(status, PRUNE_EXPANSION_BOUND,
                                          entry.cost)
                continue
            self._note_expansion(status, level)
            report.statuses_expanded += 1
            if recorder is not None:
                recorder.record_event("expand", status, entry.cost)

            for move in self._moves(status, context):
                report.plans_considered += 1
                new_cost = entry.cost + move.cost
                if recorder is not None:
                    recorder.record_candidate(status, move, new_cost,
                                              context)
                new_status = move.result
                if new_status.is_final():
                    if recorder is not None:
                        alt = build_plan(
                            self._reconstruct(best, status) + [move],
                            context)
                        recorder.record_final_plan(alt, alt.estimated_cost,
                                                   note=move.describe())
                    existing = best.get(new_status)
                    if existing is None or new_cost < existing.cost:
                        if existing is None:
                            report.statuses_generated += 1
                        else:
                            report.memo_hits += 1
                        best[new_status] = _Entry(new_cost, status, move)
                    else:
                        report.memo_hits += 1
                    if new_cost < min_final_cost:
                        min_final_cost = new_cost
                        best_final = new_status
                        if recorder is not None:
                            recorder.record_event("final", new_status,
                                                  new_cost,
                                                  move.describe())
                    continue
                if new_cost > min(min_final_cost, best_bound):
                    report.statuses_pruned += 1
                    if recorder is not None:
                        recorder.record_prune(new_status, PRUNE_COST_BOUND,
                                              new_cost)
                    continue
                if self.lookahead and self._is_deadend(new_status, context):
                    report.deadends_avoided += 1
                    if recorder is not None:
                        recorder.record_prune(new_status, PRUNE_INFEASIBLE,
                                              new_cost)
                    continue
                existing = best.get(new_status)
                if existing is not None:
                    report.memo_hits += 1
                    if new_cost >= existing.cost:
                        if recorder is not None:
                            recorder.record_prune(new_status,
                                                  PRUNE_DOMINATED, new_cost)
                        continue
                if existing is None:
                    report.statuses_generated += 1
                if recorder is not None:
                    if existing is None:
                        recorder.record_event("generate", new_status,
                                              new_cost, move.describe())
                    else:
                        recorder.record_event("improve", new_status,
                                              new_cost)
                best[new_status] = _Entry(new_cost, status, move)
                bound = new_cost + upper_bound_completion(new_status,
                                                          context)
                best_bound = min(best_bound, bound)
                heapq.heappush(heap, (bound, next(tie_breaker), new_cost,
                                      new_status))

        if best_final is None:
            raise OptimizerError("search reached no final status")
        moves = self._reconstruct(best, best_final)
        plan = build_plan(moves, context)
        if recorder is not None:
            for memo_status, memo_entry in best.items():
                recorder.record_memo_entry(memo_status, memo_entry.cost,
                                           memo_status.level(pattern))
            for memo_status in best:
                if memo_status.is_final():
                    alt = build_plan(self._reconstruct(best, memo_status),
                                     context)
                    recorder.record_final_plan(alt, alt.estimated_cost,
                                               note=f"final {memo_status}")
        # Report the replayed cost of the reconstructed chain: for the
        # exact searches it equals best[best_final].cost; under
        # DPAP-EB's expansion cap a predecessor may have improved after
        # the final status was last refreshed, making the chain
        # genuinely cheaper than the recorded label.
        return plan, plan.estimated_cost

    @staticmethod
    def _reconstruct(best: dict[Status, _Entry],
                     final_status: Status) -> list[Move]:
        moves: list[Move] = []
        status = final_status
        while True:
            entry = best[status]
            if entry.move is None:
                break
            moves.append(entry.move)
            if entry.previous is None:
                raise OptimizerError("broken back-pointer chain")
            status = entry.previous
        moves.reverse()
        return moves
