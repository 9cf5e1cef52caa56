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

Neither re-implements any of the search.  DPAP-EB overrides DPP's one
hook, :meth:`~repro.core.dpp.DPPOptimizer._admission`.  DPAP-LD
overrides nothing: the left-deep space is the ``left_deep`` switch the
base class hands to the per-optimize context, where the move set, the
Lookahead test and ``ubCost`` all read it
(:mod:`repro.core.enumeration`) — so its Pruning Rule bounds left-deep
statuses by the cost of a left-deep plan, and what it returns is the
cheapest one.
"""

from __future__ import annotations

from typing import Callable

from repro.core.enumeration import EnumerationContext
from repro.core.optimizer import register
from repro.core.dpp import DPPOptimizer
from repro.core.stats import OptimizerReport


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

    def _admission(self, context: EnumerationContext
                   ) -> Callable[[int, OptimizerReport], bool]:
        limit = (self.expansion_bound if self.expansion_bound is not None
                 else len(context.pattern.edges))
        expansions: dict[int, int] = {}
        closed_below = 0

        def admit(level: int, report: OptimizerReport) -> bool:
            nonlocal closed_below
            count = expansions.get(level, 0)
            if level < closed_below or count >= limit:
                report.statuses_pruned += 1
                return False
            expansions[level] = count + 1
            if count + 1 >= limit:
                # level is full: creating more statuses here is
                # pointless, so levels below it are closed for expansion.
                closed_below = max(closed_below, level)
            return True

        return admit


@register
class DPAPLDOptimizer(DPPOptimizer):
    """DPP over the left-deep search space (one growing node): the
    move set, the Lookahead test and ``ubCost`` all read the context's
    ``left_deep``, so this class is its name and that switch."""

    name = "DPAP-LD"
    left_deep = True
