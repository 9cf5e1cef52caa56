"""Dynamic programming with aggressive pruning (Sec. 3.3).

Two heuristic restrictions of DPP, each trading optimality for a
smaller search:

* :class:`DPAPEBOptimizer` (Sec. 3.3.1) — the *expansion bound* ``T_e``
  caps how many statuses may be expanded at each level; once a level
  reaches the cap, statuses at strictly lower levels are never expanded
  again (their only purpose would be to create more statuses at the
  full level).
* :class:`DPAPLDOptimizer` (Sec. 3.3.2) — only *left-deep* statuses: a
  single "growing node" cluster is allowed to hold more than one
  pattern node, so every move extends that cluster by one base node
  set.  This mirrors the relational rule of thumb the paper shows to
  be a poor fit for XML.
"""

from __future__ import annotations

from repro.core.enumeration import (EnumerationContext, edge_eligible,
                                    left_deep_allows, possible_moves)
from repro.core.optimizer import register
from repro.core.dpp import DPPOptimizer
from repro.core.plans import PhysicalPlan
from repro.core.stats import OptimizerReport
from repro.core.status import Move, Status


@register
class DPAPEBOptimizer(DPPOptimizer):
    """DPP with a per-level expansion bound ``T_e``.

    The paper sets ``T_e`` to the number of pattern edges by default
    (Sec. 4.2); Figures 7 and 8 sweep it from 1 upward.
    """

    name = "DPAP-EB"

    def __init__(self, cost_model=None, expansion_bound: int | None = None,
                 lookahead: bool = True, planspace=None) -> None:
        super().__init__(cost_model, lookahead=lookahead,
                         planspace=planspace)
        self.expansion_bound = expansion_bound
        self._limit = 0
        self._expansions: dict[int, int] = {}
        self._closed_below = 0

    def _search(self, context: EnumerationContext,
                report: OptimizerReport) -> tuple[PhysicalPlan, float]:
        self._limit = (self.expansion_bound
                       if self.expansion_bound is not None
                       else len(context.pattern.edges))
        self._expansions = {}
        self._closed_below = 0
        return super()._search(context, report)

    def _may_expand(self, status: Status, level: int,
                    report: OptimizerReport) -> bool:
        if level < self._closed_below:
            report.statuses_pruned += 1
            return False
        if self._expansions.get(level, 0) >= self._limit:
            report.statuses_pruned += 1
            return False
        return True

    def _note_expansion(self, status: Status, level: int) -> None:
        count = self._expansions.get(level, 0) + 1
        self._expansions[level] = count
        if count >= self._limit:
            # level is full: creating more statuses here is pointless,
            # so levels below it are closed for expansion.
            self._closed_below = max(self._closed_below, level)


@register
class DPAPLDOptimizer(DPPOptimizer):
    """DPP restricted to left-deep statuses (one growing node)."""

    name = "DPAP-LD"

    def _moves(self, status: Status,
               context: EnumerationContext) -> list[Move]:
        return possible_moves(status, context, left_deep=True)

    def _is_deadend(self, status: Status,
                    context: EnumerationContext) -> bool:
        """Left-deep doom test.

        In a left-deep status every further join consumes the single
        growing cluster, whose input ordering can never be changed —
        so the status is viable iff some remaining edge adjacent to the
        growing cluster has its growing-side endpoint equal to the
        cluster's ordering (the other endpoint is a singleton, which is
        always correctly ordered).
        """
        if status.is_final():
            return False
        growing = status.growing_nodes()
        if not growing:
            return False
        if len(growing) > 1:
            return True
        return not any(
            edge_eligible(status, edge) and left_deep_allows(status, edge)
            for edge in context.remaining_edges(status))
