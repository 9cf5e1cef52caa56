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

Which moves exist, which statuses are dead and what ``ubCost`` a
completion costs are not decided here: all three are read from
:mod:`repro.core.enumeration` under the context's search space, so the
bound that prunes is always the cost of a plan this search can build.
A subclass restricts the search through the class's ``left_deep``
switch (DPAP-LD) or the one :meth:`~DPPOptimizer._admission` hook
(DPAP-EB).

Statuses are integer codes and moves plain tuples, as in DP: the queue
holds ``(Cost + ubCost, tie-breaker, Cost, code)``, the memo ``code ->
(cost, previous code, move)``.  A candidate is looked up in the memo
first: only a status not tabled yet is judged — its clusters derived
from its parent's, its doom verdict and ``ubCost`` built with them,
once per code (:meth:`~repro.core.enumeration.EnumerationContext.judge`)
— since a tabled one passed the Lookahead test when it was tabled.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.errors import OptimizerError
from repro.core.enumeration import (EnumerationContext, Memo, build_plan,
                                    completed_cost, possible_moves,
                                    reconstruct_moves,
                                    upper_bound_completion)
from repro.core.optimizer import Optimizer, register
from repro.core.planspace import (PRUNE_COST_BOUND, PRUNE_DOMINATED,
                                  PRUNE_EXPANSION_BOUND, PRUNE_INFEASIBLE)
from repro.core.plans import PhysicalPlan
from repro.core.stats import OptimizerReport
from repro.core.status import describe_move


@register
class DPPOptimizer(Optimizer):
    """Best-first exact search with pruning and lookahead."""

    name = "DPP"

    def __init__(self, cost_model=None, lookahead: bool = True,
                 planspace=None) -> None:
        super().__init__(cost_model, planspace=planspace)
        self.lookahead = lookahead

    def _admission(self, context: EnumerationContext
                   ) -> Callable[[int, OptimizerReport], bool]:
        """The one hook: a fresh ``admit(level, report)`` per search,
        asked once about each status that is about to be expanded.
        DPP expands everything the Pruning Rule left alive; DPAP-EB
        overrides this with its per-level bound."""
        return lambda level, report: True

    # -- search -------------------------------------------------------------

    def _search(self, context: EnumerationContext,
                report: OptimizerReport) -> tuple[PhysicalPlan, float]:
        start = context.start_code
        start_cost = context.start_cost()
        finals = context.final_codes
        size = context.size
        lookahead = self.lookahead
        records, judge = context.records, context.judge

        best: Memo = {start: (start_cost, None, None)}
        report.statuses_generated += 1
        recorder = self.planspace
        if recorder is not None:
            recorder.record_event("generate", start, start_cost, "start")
        admit = self._admission(context)
        tie_breaker = itertools.count()
        start_bound = start_cost + upper_bound_completion(start, context)
        heap: list[tuple[float, int, float, int]] = []
        heapq.heappush(heap, (start_bound, next(tie_breaker), start_cost,
                              start))

        min_final_cost = float("inf")
        # Tightest known achievable full-plan cost: every live status'
        # Cost + ubCost is the cost of a real completion, so it bounds
        # the optimum and seeds the Pruning Rule from the first push.
        best_bound = start_bound
        # the Pruning Rule's threshold: the lesser of the best final's
        # cost and the best bound — the bound as the search would add
        # it up along its path (``completed_cost``), so an ulp of
        # summation order never prunes the optimum
        threshold = completed_cost(start, start_cost, context)
        best_final: int | None = None

        while heap:
            _, _, queued_cost, status = heapq.heappop(heap)
            cost = best[status][0]
            if queued_cost > cost:
                continue  # stale queue entry; a cheaper path superseded it
            if cost > threshold:
                report.statuses_pruned += 1
                if recorder is not None:
                    recorder.record_prune(status, PRUNE_COST_BOUND,
                                          cost, generated=True)
                continue  # Pruning Rule: dead
            if status in finals:
                continue  # finals are never expanded
            if not admit(size - len(records[status][0]), report):
                if recorder is not None:
                    recorder.record_prune(status, PRUNE_EXPANSION_BOUND,
                                          cost)
                continue
            report.statuses_expanded += 1
            if recorder is not None:
                recorder.record_event("expand", status, cost)

            moves = possible_moves(status, context)
            report.plans_considered += len(moves)
            for move in moves:
                new_cost = cost + move[3]
                if recorder is not None:
                    recorder.record_candidate(status, move, new_cost,
                                              context)
                new_status = move[4]
                if new_status in finals:
                    if recorder is not None:
                        recorder.record_final_path(best, status,
                                                   describe_move(move),
                                                   move)
                    existing = best.get(new_status)
                    if existing is None or new_cost < existing[0]:
                        if existing is None:
                            report.statuses_generated += 1
                        else:
                            report.memo_hits += 1
                        best[new_status] = (new_cost, status, move)
                    else:
                        report.memo_hits += 1
                    if new_cost < min_final_cost:
                        min_final_cost = new_cost
                        if new_cost < threshold:
                            threshold = new_cost
                        best_final = new_status
                        if recorder is not None:
                            recorder.record_event("final", new_status,
                                                  new_cost,
                                                  describe_move(move))
                    continue
                if new_cost > threshold:
                    report.statuses_pruned += 1
                    if recorder is not None:
                        recorder.record_prune(new_status, PRUNE_COST_BOUND,
                                              new_cost)
                    continue
                existing = best.get(new_status)
                if existing is None:
                    # only an untabled status is judged: a tabled one
                    # passed the Lookahead test when it was tabled.  A
                    # code recorded here was judged (a doomed one comes
                    # back), since this search never derives one
                    record = (records.get(new_status)
                              or judge(new_status, status, move[0]))
                    if lookahead and record[3]:
                        report.deadends_avoided += 1
                        if recorder is not None:
                            recorder.record_prune(new_status,
                                                  PRUNE_INFEASIBLE,
                                                  new_cost)
                        continue
                    report.statuses_generated += 1
                    if recorder is not None:
                        recorder.record_event("generate", new_status,
                                              new_cost, describe_move(move))
                else:
                    report.memo_hits += 1
                    if new_cost >= existing[0]:
                        if recorder is not None:
                            recorder.record_prune(new_status,
                                                  PRUNE_DOMINATED, new_cost)
                        continue
                    if recorder is not None:
                        recorder.record_event("improve", new_status,
                                              new_cost)
                    record = records[new_status]
                best[new_status] = (new_cost, status, move)
                bound = new_cost + record[4]
                if bound < best_bound:
                    best_bound = bound
                    completed = completed_cost(new_status, new_cost,
                                               context)
                    if completed < threshold:
                        threshold = completed
                heapq.heappush(heap, (bound, next(tie_breaker), new_cost,
                                      new_status))

        if best_final is None:
            raise OptimizerError("search reached no final status")
        plan = build_plan(reconstruct_moves(best, best_final), context)
        if recorder is not None:
            recorder.record_memo(best)
        # Report the replayed cost of the reconstructed chain: for the
        # exact searches it equals best[best_final].cost; under
        # DPAP-EB's expansion cap a predecessor may have improved after
        # the final status was last refreshed, making the chain
        # genuinely cheaper than the recorded label.
        return plan, plan.estimated_cost
