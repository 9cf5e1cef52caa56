"""Opt-in plan-space recording for the optimizer searches.

A :class:`PlanSpaceRecorder` captures what an optimizer *saw* while
choosing a plan: every costed candidate (with its estimated cost split
across the four Sec. 2.2.2 counter families — read from the cost
model's own :meth:`~repro.core.cost.CostModel.by_family` views, never
re-derived here), every memo-table entry
retained, every pruning with its reason, the alternative final plans
the search reached and, for the DPP family, the Fig. 3 / Fig. 4 walk
itself — statuses numbered in generation order, each generation,
expansion, pruning, avoided deadend, cost improvement and final-status
discovery an event (Examples 3.3 and 3.6).  Recording follows the
same is-None-slot pattern as the executor's operator spans: optimizers
hoist ``recorder = self.planspace`` to a local and guard every call
with ``if recorder is not None``, so the off path costs one
predictable branch per candidate.

The searches hand the recorder status codes and move tuples (see
:mod:`repro.core.enumeration`); the recorder reads them through
:class:`~repro.core.status.Status` views, built here and only here, so
a search without a recorder never builds one.  The recorder itself is
deliberately dependency-light (statuses, plans, cost model, and
:mod:`repro.core.enumeration`'s memo walk for the epilogue DP and DPP
share); ranking and rendering — top-k alternatives, "why the winner
won" — live in :mod:`repro.obs.planspace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.enumeration import build_plan, reconstruct_moves
from repro.core.plans import PhysicalPlan
from repro.core.status import Status, describe_move

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.cost import CostModel
    from repro.core.enumeration import EnumerationContext, Memo, MoveTuple
    from repro.core.pattern import QueryPattern
    from repro.core.stats import OptimizerReport

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

#: Recording caps: costed candidates (search events share the bound)
#: and memo-table entries kept per recorder.
MAX_CANDIDATES = 20000
MAX_MEMO_ENTRIES = 50000


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
        #: pruning counts by reason
        self.prunings: dict[str, int] = {}
        #: alternative final plans: (plan, cost, note)
        self.finals: list[tuple[PhysicalPlan, float, str]] = []
        self.winner: PhysicalPlan | None = None
        self.winner_cost = 0.0
        self.report: "OptimizerReport | None" = None
        #: the search walk (DPP family only; capped like candidates)
        self.events: list[SearchEvent] = []
        self.events_dropped = 0
        self._status_ids: dict["Status", int] = {}
        self._families: dict[str, "CostModel"] = {}

    # -- lifecycle ---------------------------------------------------------

    def begin(self, algorithm: str, pattern: "QueryPattern",
              context: "EnumerationContext") -> None:
        self._reset()
        self.algorithm = algorithm
        self.pattern = pattern
        self.context = context
        self._families = context.cost_model.by_family()

    def finish(self, plan: PhysicalPlan, cost: float,
               report: "OptimizerReport") -> None:
        self.winner = plan
        self.winner_cost = cost
        self.report = report

    # -- recording hooks (optimizers call these behind is-None guards) -----

    def record_candidate(self, code: int, move: "MoveTuple",
                         path_cost: float,
                         context: "EnumerationContext") -> None:
        """One costed move out of the status *code*; ``path_cost`` is the
        cumulative cost of the path ending in this move.  Its
        ``breakdown`` is the move priced again under each
        :meth:`~repro.core.cost.CostModel.by_family` view — the join
        by its algorithm, plus the one sort a move with a ``sort_to``
        charges (an intermediate re-sort or the final order-by
        canonicalization) — so the families sum to the move's cost."""
        if len(self.candidates) >= MAX_CANDIDATES:
            self.candidates_dropped += 1
            return
        edge, algorithm, sort_to, cost, _ = move
        status = Status.from_code(code, context.pattern)
        ancestor = status.mask_of(edge.parent)
        merged = ancestor | status.mask_of(edge.child)
        ancestor_card = context.cards.cluster_cardinality(ancestor)
        merged_card = context.cards.cluster_cardinality(merged)
        self.candidates.append({
            "kind": "move",
            "status": str(status),
            "move": describe_move(move),
            "algorithm": algorithm.value,
            "sort_to": sort_to,
            "move_cost": cost,
            "path_cost": path_cost,
            "breakdown": {
                name: view.join(algorithm, ancestor_card, merged_card)
                + (view.sort(merged_card) if sort_to is not None else 0.0)
                for name, view in self._families.items()},
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

    def record_prune(self, code: int, reason: str,
                     cost: float, generated: bool = False) -> None:
        """A candidate/status (code) discarded for *reason* (see
        taxonomy).  Two prunings are also steps of the search walk: a
        deadend never generated, and a *generated* status killed off
        the queue."""
        self.prunings[reason] = self.prunings.get(reason, 0) + 1
        if reason == PRUNE_INFEASIBLE:
            self.record_event("deadend", code, cost, "not generated")
        elif generated and reason == PRUNE_COST_BOUND:
            self.record_event("prune", code, cost,
                              "cost exceeds best known plan")

    def record_event(self, kind: str, code: int, cost: float,
                     detail: str = "") -> None:
        """One step of the search walk, about the status *code* (see
        :class:`SearchEvent`)."""
        if len(self.events) >= MAX_CANDIDATES:
            self.events_dropped += 1
            return
        status = Status.from_code(code, self.pattern)
        self.events.append(SearchEvent(kind, self.status_id(status),
                                       cost, detail, status))

    def record_final_plan(self, plan: PhysicalPlan, cost: float,
                          note: str = "") -> None:
        """A complete alternative plan the search reached."""
        self.finals.append((plan, cost, note))

    def record_final_path(self, memo: "Memo", code: int, note: str,
                          move: "MoveTuple | None" = None) -> None:
        """The alternative plan a memo search (DP, the DPP family)
        reached: *memo*'s cheapest path to the status *code*, then
        *move* when it is the final move just costed out of it."""
        moves = reconstruct_moves(memo, code)
        if move is not None:
            moves.append(move)
        plan = build_plan(moves, self.context)
        self.record_final_plan(plan, plan.estimated_cost, note)

    def record_memo(self, memo: "Memo") -> None:
        """A finished memo search's table: every entry, then every
        final status rebuilt as an alternative plan."""
        views = {code: Status.from_code(code, self.pattern)
                 for code in memo}
        for code, (cost, _, _) in memo.items():
            self.record_memo_entry(views[code], cost,
                                   views[code].level(self.pattern))
        for code, status in views.items():
            if status.is_final():
                self.record_final_path(memo, code, f"final {status}")

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
