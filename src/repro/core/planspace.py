"""Opt-in plan-space recording for the optimizer searches.

A :class:`PlanSpaceRecorder` captures what an optimizer *saw* while
choosing a plan: every costed candidate (with its estimated cost split
across the four Sec. 2.2.2 counter families), every memo-table entry
retained, every pruning with its reason, the alternative final plans
the search reached and, for the DPP family, the Fig. 3 / Fig. 4 walk
itself — statuses numbered in generation order, each generation,
expansion, pruning, avoided deadend, cost improvement and final-status
discovery an event (Examples 3.3 and 3.6).  Recording follows the
same is-None-slot pattern as the executor's operator spans: optimizers
hoist ``recorder = self.planspace`` to a local and guard every call
with ``if recorder is not None``, so the off path costs one
predictable branch per candidate.

The recorder itself is deliberately dependency-light (statuses, plans,
cost model only); rendering — digests, top-k ranking, "why the winner
won" — lives in :mod:`repro.obs.planspace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.plans import (IndexScanPlan, JoinAlgorithm, PhysicalPlan,
                              SortPlan, StructuralJoinPlan)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.enumeration import EnumerationContext
    from repro.core.pattern import QueryPattern
    from repro.core.stats import OptimizerReport
    from repro.core.status import Move, Status

#: Pruning taxonomy (DESIGN.md §11).  ``dominated-by-cost`` is dynamic
#: programming's own rule (same status reached cheaper another way);
#: ``cost-bound`` is DPP's Pruning Rule (Sec. 3.2, cost exceeds the
#: best known full plan); ``infeasible`` is the Lookahead Rule
#: (Definition 6 deadends, never generated); ``expansion-bound`` is
#: DPAP-EB's per-level ``T_e`` cap (Sec. 3.3.1).
PRUNE_DOMINATED = "dominated-by-cost"
PRUNE_COST_BOUND = "cost-bound"
PRUNE_INFEASIBLE = "infeasible"
PRUNE_EXPANSION_BOUND = "expansion-bound"

PRUNE_REASONS = (PRUNE_DOMINATED, PRUNE_COST_BOUND, PRUNE_INFEASIBLE,
                 PRUNE_EXPANSION_BOUND)

#: Cost-family keys, matching :data:`repro.core.cost.COST_FACTOR_NAMES`.
FAMILIES = ("f_index", "f_sort", "f_io", "f_stack")

#: Recording caps: costed candidates (search events share the bound),
#: memo-table entries, and detailed pruning samples kept per recorder.
MAX_CANDIDATES = 20000
MAX_MEMO_ENTRIES = 50000
MAX_PRUNE_SAMPLES = 50


@dataclass(frozen=True, slots=True)
class SearchEvent:
    """One step of a DPP-family search: ``generate``, ``improve``,
    ``expand``, ``prune``, ``deadend`` or ``final``."""

    kind: str
    status_id: int
    cost: float
    detail: str = ""
    status: "Status | None" = None

    def __str__(self) -> str:
        note = f"  ({self.detail})" if self.detail else ""
        return f"{self.kind:8s} status{self.status_id} " \
               f"cost={self.cost:.1f}{note}"


def move_breakdown(status: "Status", move: "Move",
                   context: "EnumerationContext") -> dict[str, float]:
    """Split one move's estimated cost across the four counter families.

    The join component is re-derived from the clusters the move merges
    (cardinality lookups hit :class:`PatternCardinalities`' cache); the
    residual is exactly the sort cost the move charged (intermediate
    re-sorts and the final order-by canonicalization both price as
    sorts), so the families always sum to ``move.cost``.
    """
    edge = move.edge
    ancestor = status.cluster_of(edge.parent)
    descendant = status.cluster_of(edge.child)
    ancestor_card = context.cards.cluster(ancestor.nodes)
    factors = context.cost_model.factors
    stack = 2.0 * ancestor_card * factors.f_stack
    if move.algorithm is JoinAlgorithm.STACK_TREE_ANC:
        merged_card = context.cards.cluster(ancestor.nodes
                                            | descendant.nodes)
        io = 2.0 * merged_card * factors.f_io
    else:
        io = 0.0
    sort = move.cost - io - stack
    return {"f_index": 0.0, "f_sort": sort if sort > 1e-9 else 0.0,
            "f_io": io, "f_stack": stack}


def plan_cost_breakdown(plan: PhysicalPlan,
                        factors) -> dict[str, float]:
    """Split an annotated plan's cumulative cost across the families.

    Works from the plan's own cardinality annotations, so it prices a
    reconstructed or logged plan the same way the enumerator priced it
    live.  Join algorithms outside the stack-tree pair (none are ever
    emitted by the optimizers) fold their residual into ``f_stack``.
    """
    import math

    totals = {name: 0.0 for name in FAMILIES}

    def visit(node: PhysicalPlan) -> None:
        if isinstance(node, IndexScanPlan):
            totals["f_index"] += node.estimated_cost
        elif isinstance(node, SortPlan):
            visit(node.child)
            items = node.estimated_cardinality
            if items > 1:
                totals["f_sort"] += (items * math.log2(items)
                                     * factors.f_sort)
        elif isinstance(node, StructuralJoinPlan):
            visit(node.ancestor_plan)
            visit(node.descendant_plan)
            stack = (2.0 * node.ancestor_plan.estimated_cardinality
                     * factors.f_stack)
            if node.algorithm is JoinAlgorithm.STACK_TREE_ANC:
                totals["f_io"] += (2.0 * node.estimated_cardinality
                                   * factors.f_io)
                totals["f_stack"] += stack
            elif node.algorithm is JoinAlgorithm.STACK_TREE_DESC:
                totals["f_stack"] += stack
            else:
                join_cost = (node.estimated_cost
                             - node.ancestor_plan.estimated_cost
                             - node.descendant_plan.estimated_cost)
                totals["f_stack"] += join_cost

    visit(plan)
    return totals


class PlanSpaceRecorder:
    """Collects one ``optimize()`` call's search-space evidence.

    Attach via ``get_optimizer(name, planspace=recorder)`` (or
    ``Database.optimize(..., planspace=recorder)``); read the captured
    lists afterwards, or hand the recorder to
    :func:`repro.obs.planspace.build_plan_space_report` for rendering.
    A recorder is single-use per optimize call: ``begin`` resets it.
    """

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self.algorithm: str | None = None
        self.pattern: "QueryPattern | None" = None
        self.context: "EnumerationContext | None" = None
        #: every costed candidate move/permutation (capped)
        self.candidates: list[dict[str, object]] = []
        self.candidates_dropped = 0
        #: memo-table entries retained by the search (capped)
        self.memo_entries: list[dict[str, object]] = []
        self.memo_dropped = 0
        #: pruning counts by reason, plus a bounded sample of details
        self.prunings: dict[str, int] = {}
        self.prune_samples: list[dict[str, object]] = []
        #: alternative final plans: (plan, cost, note)
        self.finals: list[tuple[PhysicalPlan, float, str]] = []
        self.winner: PhysicalPlan | None = None
        self.winner_cost = 0.0
        self.report: "OptimizerReport | None" = None
        #: the search walk (DPP family only; capped like candidates)
        self.events: list[SearchEvent] = []
        self.events_dropped = 0
        self._status_ids: dict["Status", int] = {}

    # -- lifecycle ---------------------------------------------------------

    def begin(self, algorithm: str, pattern: "QueryPattern",
              context: "EnumerationContext") -> None:
        self._reset()
        self.algorithm = algorithm
        self.pattern = pattern
        self.context = context

    def finish(self, plan: PhysicalPlan, cost: float,
               report: "OptimizerReport") -> None:
        self.winner = plan
        self.winner_cost = cost
        self.report = report

    # -- recording hooks (optimizers call these behind is-None guards) -----

    def record_candidate(self, status: "Status", move: "Move",
                         path_cost: float,
                         context: "EnumerationContext") -> None:
        """One costed move out of *status*; ``path_cost`` is the
        cumulative cost of the path ending in this move."""
        if len(self.candidates) >= MAX_CANDIDATES:
            self.candidates_dropped += 1
            return
        self.candidates.append({
            "kind": "move",
            "status": str(status),
            "move": move.describe(),
            "algorithm": move.algorithm.value,
            "sort_to": move.sort_to,
            "move_cost": move.cost,
            "path_cost": path_cost,
            "breakdown": move_breakdown(status, move, context),
        })

    def record_permutation(self, node_id: int, exclude: int | None,
                           order: tuple[int, ...], cost: float) -> None:
        """One costed FP join permutation under root *node_id*."""
        if len(self.candidates) >= MAX_CANDIDATES:
            self.candidates_dropped += 1
            return
        self.candidates.append({
            "kind": "permutation",
            "status": f"fp({node_id},{exclude})",
            "move": "join order " + ",".join(map(str, order)),
            "algorithm": None,
            "sort_to": None,
            "move_cost": cost,
            "path_cost": cost,
            "breakdown": None,
        })

    def record_memo_entry(self, status: object, cost: float,
                          level: int) -> None:
        """A retained memo-table entry (DP level / DPP best / FP memo)."""
        if len(self.memo_entries) >= MAX_MEMO_ENTRIES:
            self.memo_dropped += 1
            return
        self.memo_entries.append({
            "status": str(status), "cost": cost, "level": level})

    def record_prune(self, subject: object, reason: str,
                     cost: float, generated: bool = False) -> None:
        """A candidate/status discarded for *reason* (see taxonomy).
        Two prunings are also steps of the search walk: a deadend never
        generated, and a *generated* status killed off the queue."""
        self.prunings[reason] = self.prunings.get(reason, 0) + 1
        if len(self.prune_samples) < MAX_PRUNE_SAMPLES:
            self.prune_samples.append({
                "subject": str(subject), "reason": reason, "cost": cost})
        if reason == PRUNE_INFEASIBLE:
            self.record_event("deadend", subject, cost, "not generated")
        elif generated and reason == PRUNE_COST_BOUND:
            self.record_event("prune", subject, cost,
                              "cost exceeds best known plan")

    def record_event(self, kind: str, status: "Status", cost: float,
                     detail: str = "") -> None:
        """One step of the search walk (see :class:`SearchEvent`)."""
        if len(self.events) >= MAX_CANDIDATES:
            self.events_dropped += 1
            return
        self.events.append(SearchEvent(kind, self.status_id(status),
                                       cost, detail, status))

    def record_final_plan(self, plan: PhysicalPlan, cost: float,
                          note: str = "") -> None:
        """A complete alternative plan the search reached."""
        self.finals.append((plan, cost, note))

    # -- summaries ---------------------------------------------------------

    @property
    def memo_size(self) -> int:
        return len(self.memo_entries) + self.memo_dropped

    @property
    def candidates_enumerated(self) -> int:
        return len(self.candidates) + self.candidates_dropped

    @property
    def pruned_total(self) -> int:
        return sum(self.prunings.values())

    # -- the search walk ---------------------------------------------------

    def status_id(self, status: "Status") -> int:
        """Fig. 4-style numbering: statuses in generation order."""
        return self._status_ids.setdefault(status, len(self._status_ids))

    def status_count(self) -> int:
        return len(self._status_ids)

    def events_of_kind(self, kind: str) -> list[SearchEvent]:
        return [event for event in self.events if event.kind == kind]

    def narrative(self, limit: int | None = None) -> str:
        """Multi-line rendering of the search, Example 3.6 style."""
        lines = []
        events = self.events if limit is None else self.events[:limit]
        for event in events:
            note = f" -- {event.detail}" if event.detail else ""
            lines.append(f"{event.kind:8s} status{event.status_id:<3d} "
                         f"{event.status}  "
                         f"cost={event.cost:.1f}{note}")
        more = len(self.events) + self.events_dropped - len(events)
        if more:
            lines.append(f"... {more} more events")
        return "\n".join(lines)
