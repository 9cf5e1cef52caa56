"""Plan-space rendering, plan comparison, and what-if analysis.

Everything here reads the plan algebra :mod:`repro.core` holds — the
price (:func:`~repro.core.enumeration.plan_cost_by_family`, one walk
over :class:`~repro.core.cost.CostModel`), the identity
(:func:`~repro.core.plans.canonical_plan_digest` and its parser) —
and adds the one thing above it, the **comparison**:

* :func:`compare_plans` sets an old plan (or a logged digest of one)
  against a new plan under one pricing context and yields a
  :class:`PlanComparison` — both digests, the structural diff, the old
  plan re-priced, the new plan's price, the margin between them, the
  per-family crossover and the family that drove it.  A digest that
  cannot be parsed, rebuilt or priced degrades to a ``note``.
* :func:`build_plan_space_report` turns a filled
  :class:`~repro.core.planspace.PlanSpaceRecorder` into a
  :class:`PlanSpaceReport` — top-k alternative plans with
  renumbering-invariant digests and cost deltas, pruning-effectiveness
  stats, memo size, and "why the winner won": the runner-up compared
  with the winner.
* :func:`run_whatif` re-optimizes a query under hypothetical cost
  factors, scaled statistics, or a forced plan — without mutating the
  database — and returns the baseline winner compared with the
  hypothetical one.  ``audit --why`` (:mod:`repro.obs.audit`) embeds
  the same comparison, logged digest against the plan chosen now.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.errors import PlanError, ReproError
from repro.core.cost import CostFactors, CostModel
from repro.core.enumeration import (EnumerationContext, estimate_plan_cost,
                                    plan_cost_by_family)
from repro.core.optimizer import get_optimizer
from repro.core.planspace import PlanSpaceRecorder
from repro.core.plans import (PhysicalPlan, canonical_plan_digest,
                              plan_digest_diff, plan_from_digest,
                              remap_plan)
from repro.estimation.estimator import ExactEstimator, ScaledEstimator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.target import QueryTarget

__all__ = ["PlanAlternative", "PlanComparison", "PlanSpaceReport",
           "WhatIfResult", "build_plan_space_report", "compare_plans",
           "run_whatif"]


# -- the comparison ---------------------------------------------------------

@dataclass
class PlanComparison:
    """An old plan against a new one under one pricing context."""

    old_digest: str
    new_digest: str
    new_cost: float
    #: operator-multiset diff old -> new (:func:`plan_digest_diff`);
    #: None when the old digest does not parse
    diff: dict[str, object] | None = None
    #: the old plan re-priced under the context; None (with a ``note``)
    #: when it could not be rebuilt or the model has no price for it
    old_cost: float | None = None
    #: per-family ``old - new``: positive where the old plan loses
    crossover: dict[str, float] | None = None
    note: str = ""

    @property
    def flipped(self) -> bool:
        return self.old_digest != self.new_digest

    @property
    def margin(self) -> float | None:
        """What keeping the old plan would cost over the new one."""
        if self.old_cost is None:
            return None
        return self.old_cost - self.new_cost

    def _crossover_text(self) -> str:
        return ", ".join(f"{name} {delta:+.1f}"
                         for name, delta in (self.crossover or {}).items()
                         if abs(delta) > 1e-9)

    @property
    def driver(self) -> str:
        """``mostly on f_io: f_io +120.0, f_sort -8.0`` — the family
        the old plan loses most on, then every family that moved."""
        if self.crossover is None:
            return self.note
        worst = max(self.crossover, key=lambda name: self.crossover[name])
        return (f"mostly on {worst}: "
                f"{self._crossover_text() or 'no per-family difference'}")

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "old_digest": self.old_digest,
            "new_digest": self.new_digest,
            "new_cost": self.new_cost,
        }
        if self.diff is not None:
            payload["diff"] = dict(self.diff)
        if self.old_cost is not None:
            payload.update(old_cost=self.old_cost, margin=self.margin,
                           crossover=dict(self.crossover or {}),
                           driver=self.driver)
        if self.note:
            payload["note"] = self.note
        return payload

    def render(self, indent: str = "    ") -> str:
        lines = []
        if self.diff is not None:
            removed = ", ".join(map(str, self.diff["removed"]))
            added = ", ".join(map(str, self.diff["added"]))
            lines.append(f"diff:      -[{removed or '-'}] +[{added or '-'}]"
                         f" ({self.diff['unchanged']} unchanged)")
        if self.old_cost is not None:
            lines.append(f"cost:      old plan re-priced {self.old_cost:.1f}"
                         f" vs new {self.new_cost:.1f}"
                         f" (margin {self.margin:+.1f})")
            lines.append(f"crossover: "
                         f"{self._crossover_text() or 'no per-family delta'}")
        if self.note:
            lines.append(f"note:      {self.note}")
        return "\n".join(indent + line for line in lines)


def compare_plans(old: PhysicalPlan | str, new_plan: PhysicalPlan,
                  context: EnumerationContext) -> PlanComparison:
    """Compare *old* — a plan, or a canonical digest of one as the
    query log stores it — with *new_plan*, both priced under *context*
    (the one *new_plan* was chosen under, so re-annotating it changes
    nothing; an old plan object is priced on a copy).
    """
    pattern = context.pattern
    new_cost, new_split = plan_cost_by_family(new_plan, context)
    comparison = PlanComparison(
        old_digest=(old if isinstance(old, str)
                    else canonical_plan_digest(old, pattern)),
        new_digest=canonical_plan_digest(new_plan, pattern),
        new_cost=new_cost)
    try:
        comparison.diff = plan_digest_diff(comparison.old_digest,
                                           comparison.new_digest)
        old_plan = (plan_from_digest(old, pattern)
                    if isinstance(old, str)
                    else remap_plan(old, {node_id: node_id for node_id
                                          in range(len(pattern))}))
        comparison.old_cost, old_split = plan_cost_by_family(old_plan,
                                                             context)
        comparison.crossover = {name: old_split[name] - new_split[name]
                                for name in new_split}
    except PlanError as exc:
        comparison.note = f"old plan could not be re-priced: {exc}"
    return comparison


# -- plan-space report ------------------------------------------------------

@dataclass
class PlanAlternative:
    """One complete plan the search reached, ranked against the winner."""

    digest: str
    cost: float
    delta: float
    note: str
    breakdown: dict[str, float]
    sorts: int
    pipelined: bool

    def to_dict(self) -> dict[str, object]:
        return {"digest": self.digest, "cost": self.cost,
                "delta": self.delta, "note": self.note,
                "breakdown": dict(self.breakdown), "sorts": self.sorts,
                "pipelined": self.pipelined}


@dataclass
class PlanSpaceReport:
    """Rendered view of one optimize() call's search space."""

    query: str
    algorithm: str
    winner_digest: str
    winner_cost: float
    winner_breakdown: dict[str, float]
    winner_sorts: int
    winner_pipelined: bool
    alternatives: list[PlanAlternative]
    finals_reached: int
    pruning: dict[str, int]
    pruned_total: int
    candidates_enumerated: int
    candidates_dropped: int
    memo_size: int
    memo_entries: list[dict[str, object]]
    plans_considered: int
    statuses_generated: int
    memo_hits: int
    optimization_seconds: float
    why: str
    trace_id: str = ""

    @property
    def pruning_effectiveness(self) -> float:
        """Fraction of enumerated candidates the search discarded."""
        if not self.candidates_enumerated:
            return 0.0
        return min(1.0, self.pruned_total / self.candidates_enumerated)

    def to_dict(self) -> dict[str, object]:
        return {
            "query": self.query,
            "algorithm": self.algorithm,
            "winner": {
                "digest": self.winner_digest,
                "cost": self.winner_cost,
                "breakdown": dict(self.winner_breakdown),
                "sorts": self.winner_sorts,
                "pipelined": self.winner_pipelined,
            },
            "alternatives": [alt.to_dict() for alt in self.alternatives],
            "finals_reached": self.finals_reached,
            "pruning": dict(self.pruning),
            "pruned_total": self.pruned_total,
            "pruning_effectiveness": self.pruning_effectiveness,
            "candidates_enumerated": self.candidates_enumerated,
            "candidates_dropped": self.candidates_dropped,
            "memo_size": self.memo_size,
            "memo_entries": list(self.memo_entries),
            "plans_considered": self.plans_considered,
            "statuses_generated": self.statuses_generated,
            "memo_hits": self.memo_hits,
            "optimization_seconds": self.optimization_seconds,
            "why": self.why,
            "trace_id": self.trace_id,
        }

    def render(self) -> str:
        breakdown = " ".join(f"{name}={value:.1f}" for name, value
                             in self.winner_breakdown.items())
        lines = [
            f"plan space for {self.query!r} via {self.algorithm} "
            f"({self.optimization_seconds * 1000:.2f}ms)",
            f"winner: {self.winner_digest}",
            f"  cost={self.winner_cost:.1f} [{breakdown}] "
            f"sorts={self.winner_sorts} "
            f"pipelined={'yes' if self.winner_pipelined else 'no'}",
        ]
        if self.alternatives:
            lines.append(f"alternatives (top {len(self.alternatives)} of "
                         f"{self.finals_reached} full plans reached):")
            for alt in self.alternatives:
                note = f" ({alt.note})" if alt.note else ""
                lines.append(f"  [+{alt.delta:.1f}] {alt.digest}{note}")
        else:
            lines.append("alternatives: none (search reached a single "
                         "full plan)")
        pruned = " ".join(f"{reason}={count}" for reason, count
                          in sorted(self.pruning.items()))
        lines.append(
            f"pruning: {pruned or 'none'} — {self.pruned_total} of "
            f"{self.candidates_enumerated} candidates pruned "
            f"({self.pruning_effectiveness:.1%})")
        lines.append(
            f"memo: {self.memo_size} entries, {self.memo_hits} hits; "
            f"{self.statuses_generated} statuses generated, "
            f"{self.plans_considered} plans considered")
        if self.candidates_dropped:
            lines.append(f"note: {self.candidates_dropped} candidate "
                         "records dropped (recorder cap); counts above "
                         "still include them")
        lines.append(f"why: {self.why}")
        return "\n".join(lines)


def build_plan_space_report(recorder: PlanSpaceRecorder,
                            query: str = "", top_k: int = 3,
                            trace_id: str = "") -> PlanSpaceReport:
    """Render a filled recorder into a :class:`PlanSpaceReport`.

    *top_k* bounds the alternative plans listed (cheapest first,
    winner excluded).
    """
    if recorder.winner is None or recorder.pattern is None:
        raise ReproError("recorder has not observed an optimize() call")
    pattern = recorder.pattern
    context = recorder.context
    assert context is not None
    winner = recorder.winner
    winner_digest = canonical_plan_digest(winner, pattern)

    # cheapest recorded instance of every distinct full plan
    by_digest: dict[str, tuple[PhysicalPlan, float, str]] = {}
    for plan, cost, note in recorder.finals:
        digest = canonical_plan_digest(plan, pattern)
        known = by_digest.get(digest)
        if known is None or cost < known[1]:
            by_digest[digest] = (plan, cost, note)
    ranked = sorted(
        ((digest, plan, cost, note)
         for digest, (plan, cost, note) in by_digest.items()
         if digest != winner_digest),
        key=lambda alternative: alternative[2])[:max(0, top_k)]
    alternatives = [
        PlanAlternative(
            digest=digest, cost=cost, delta=cost - recorder.winner_cost,
            note=note, breakdown=plan_cost_by_family(plan, context)[1],
            sorts=plan.sort_count(), pipelined=plan.is_fully_pipelined)
        for digest, plan, cost, note in ranked]

    if ranked:
        runner_up = ranked[0][1]
        versus = compare_plans(runner_up, winner, context)
        why = (f"winner beats the runner-up by {versus.margin:.1f} cost "
               f"units, {versus.driver}")
        if winner.is_fully_pipelined and not runner_up.is_fully_pipelined:
            why += "; the winner is fully pipelined, the runner-up blocks"
    elif len(by_digest) <= 1:
        why = ("the search reached a single full plan; every other "
               "candidate was pruned or infeasible")
    else:
        why = "all alternative full plans collapse to the winner's digest"

    report = recorder.report
    return PlanSpaceReport(
        query=query,
        algorithm=recorder.algorithm or "",
        winner_digest=winner_digest,
        winner_cost=recorder.winner_cost,
        winner_breakdown=plan_cost_by_family(winner, context)[1],
        winner_sorts=winner.sort_count(),
        winner_pipelined=winner.is_fully_pipelined,
        alternatives=alternatives,
        finals_reached=len(by_digest),
        pruning=dict(recorder.prunings),
        pruned_total=recorder.pruned_total,
        candidates_enumerated=recorder.candidates_enumerated,
        candidates_dropped=recorder.candidates_dropped,
        memo_size=recorder.memo_size,
        memo_entries=list(recorder.memo_entries),
        plans_considered=report.plans_considered if report else 0,
        statuses_generated=report.statuses_generated if report else 0,
        memo_hits=report.memo_hits if report else 0,
        optimization_seconds=(report.optimization_seconds
                              if report else 0.0),
        why=why,
        trace_id=trace_id)


# -- what-if analysis -------------------------------------------------------

@dataclass
class WhatIfResult:
    """Baseline vs. hypothetical optimization of one query: the
    baseline winner compared with the hypothetical one, both priced
    under the hypothesis."""

    query: str
    algorithm: str
    baseline_cost: float
    #: old = the baseline winner re-priced under the hypothesis, new =
    #: the plan chosen under it; ``margin`` is how much the old choice
    #: would now lose by
    comparison: PlanComparison
    factors: dict[str, float]
    tag_scale: dict[str, float]
    forced_digest: str = ""
    forced_cost_under_hypothesis: float = 0.0

    @property
    def baseline_digest(self) -> str:
        return self.comparison.old_digest

    @property
    def hypothetical_digest(self) -> str:
        return self.comparison.new_digest

    @property
    def baseline_cost_under_hypothesis(self) -> float:
        assert self.comparison.old_cost is not None
        return self.comparison.old_cost

    @property
    def hypothetical_cost(self) -> float:
        return self.comparison.new_cost

    @property
    def flipped(self) -> bool:
        return self.comparison.flipped

    @property
    def crossover(self) -> dict[str, float]:
        return dict(self.comparison.crossover or {})

    @property
    def diff(self) -> dict[str, object]:
        return dict(self.comparison.diff or {})

    @property
    def explanation(self) -> str:
        if self.flipped:
            return (f"under the hypothesis the baseline plan is beaten "
                    f"by {self.comparison.margin:.1f} cost units, "
                    f"{self.comparison.driver}")
        return (f"the baseline plan remains the winner; its cost moves "
                f"{self.baseline_cost:.1f} -> "
                f"{self.baseline_cost_under_hypothesis:.1f} under the "
                f"hypothesis")

    def to_dict(self) -> dict[str, object]:
        payload = {
            "query": self.query,
            "algorithm": self.algorithm,
            "baseline": {"digest": self.baseline_digest,
                         "cost": self.baseline_cost,
                         "cost_under_hypothesis":
                             self.baseline_cost_under_hypothesis},
            "hypothetical": {"digest": self.hypothetical_digest,
                             "cost": self.hypothetical_cost},
            "flipped": self.flipped,
            "crossover": self.crossover,
            "diff": self.diff,
            "factors": dict(self.factors),
            "tag_scale": dict(self.tag_scale),
            "explanation": self.explanation,
        }
        if self.forced_digest:
            payload["forced"] = {
                "digest": self.forced_digest,
                "cost_under_hypothesis":
                    self.forced_cost_under_hypothesis}
        return payload

    def render(self) -> str:
        lines = [
            f"what-if [{self.algorithm}] {self.query}",
            f"  baseline:     {self.baseline_digest} "
            f"(est {self.baseline_cost:.1f})",
            f"  hypothetical: {self.hypothetical_digest} "
            f"(est {self.hypothetical_cost:.1f})",
        ]
        if self.flipped:
            lines.append("  FLIP under the hypothesis:")
            lines.append(self.comparison.render())
        else:
            lines.append("  no flip: the baseline plan stays optimal "
                         "under the hypothesis")
        if self.forced_digest:
            lines.append(f"  forced:       {self.forced_digest} "
                         f"(est {self.forced_cost_under_hypothesis:.1f} "
                         f"under hypothesis)")
        lines.append(f"  why: {self.explanation}")
        return "\n".join(lines)


def run_whatif(database: "QueryTarget", query: str,
               algorithm: str = "DPP",
               factors: CostFactors | None = None,
               tag_scale: Mapping[str, float] | None = None,
               exact: bool = False,
               force_plan: str | None = None) -> WhatIfResult:
    """Re-optimize *query* under hypothetical conditions.

    The hypothesis is any combination of replacement cost *factors*,
    per-tag cardinality scaling (*tag_scale*, e.g. ``{"item": 10.0}``
    for "what if there were 10x as many items"), every cluster's true
    count in the document (*exact*: an
    :class:`~repro.estimation.estimator.ExactEstimator` built for this
    call), and a *force_plan* canonical digest to price
    as-if chosen (a digest that cannot be rebuilt or priced for this
    query is a :class:`~repro.errors.PlanError`).  Nothing on the
    database is mutated: the hypothesis lives in a private cost model
    and estimator wrapper, so the plan cache, statistics epoch, and
    live cost factors are untouched.
    """
    pattern = database.compile(query)
    baseline = database.optimize(pattern, algorithm=algorithm)

    hyp_factors = factors if factors is not None else database.cost_factors
    hyp_model = CostModel(hyp_factors)
    estimator = (ExactEstimator(database.document) if exact
                 else database.estimator)
    scales = dict(tag_scale or {})
    if scales:
        estimator = ScaledEstimator(estimator, scales)
    hypothetical = get_optimizer(algorithm, cost_model=hyp_model) \
        .optimize(pattern, estimator)
    hyp_context = EnumerationContext(pattern, hyp_model, estimator)

    forced_digest = ""
    forced_cost = 0.0
    if force_plan:
        forced = plan_from_digest(force_plan, pattern)
        forced_cost = estimate_plan_cost(forced, hyp_context)
        forced_digest = canonical_plan_digest(forced, pattern)

    return WhatIfResult(
        query=query if isinstance(query, str) else str(query),
        algorithm=algorithm,
        baseline_cost=baseline.estimated_cost,
        comparison=compare_plans(baseline.plan, hypothetical.plan,
                                 hyp_context),
        factors=hyp_factors.to_dict(),
        tag_scale=scales,
        forced_digest=forced_digest,
        forced_cost_under_hypothesis=forced_cost)
