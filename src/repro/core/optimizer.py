"""Optimizer base class, result type, and registry.

Every algorithm subclasses :class:`Optimizer` and implements
``_search``; the base class handles the shared flow — trivial
single-node patterns, timing, plan validation — and exposes a registry
so harness code can select algorithms by the names the paper uses
("DP", "DPP", "DPP'", "DPAP-EB", "DPAP-LD", "FP").
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import OptimizerError
from repro.core.cost import CostModel
from repro.core.enumeration import EnumerationContext, estimate_plan_cost
from repro.core.pattern import QueryPattern
from repro.core.plans import IndexScanPlan, PhysicalPlan, validate_plan
from repro.core.stats import OptimizerReport
from repro.estimation.estimator import CardinalityEstimator


@dataclass
class OptimizationResult:
    """A chosen plan plus the work it took to choose it."""

    pattern: QueryPattern
    plan: PhysicalPlan
    estimated_cost: float
    report: OptimizerReport

    def explain(self) -> str:
        return self.plan.explain(self.pattern)


class Optimizer:
    """Base class for the five join-order-selection algorithms."""

    #: Registry name; subclasses override (e.g. ``"DPP"``).
    name = "base"
    #: The search space handed to the :class:`EnumerationContext`:
    #: every status, or (DPAP-LD) only the left-deep ones.
    left_deep = False

    def __init__(self, cost_model: CostModel | None = None,
                 planspace=None) -> None:
        self.cost_model = cost_model or CostModel()
        #: optional :class:`repro.core.planspace.PlanSpaceRecorder`;
        #: None (the default) keeps the search paths recording-free.
        self.planspace = planspace

    def optimize(self, pattern: QueryPattern,
                 estimator: CardinalityEstimator) -> OptimizationResult:
        """Select a plan for *pattern* using *estimator*'s statistics."""
        report = OptimizerReport(self.name)
        context = EnumerationContext(pattern, self.cost_model, estimator,
                                     left_deep=self.left_deep)
        recorder = self.planspace
        if recorder is not None:
            recorder.begin(self.name, pattern, context)
        started = time.perf_counter()
        if len(pattern) == 1:
            plan: PhysicalPlan = IndexScanPlan(pattern.root)
            cost = estimate_plan_cost(plan, context)
            report.plans_considered = 1
            if recorder is not None:
                recorder.record_final_plan(plan, cost, "single-node scan")
        else:
            plan, cost = self._search(context, report)
        report.optimization_seconds = time.perf_counter() - started
        validate_plan(plan, pattern)
        if recorder is not None:
            recorder.finish(plan, cost, report)
        return OptimizationResult(pattern=pattern, plan=plan,
                                  estimated_cost=cost, report=report)

    def _search(self, context: EnumerationContext,
                report: OptimizerReport) -> tuple[PhysicalPlan, float]:
        raise NotImplementedError


_REGISTRY: dict[str, type[Optimizer]] = {}


def register(cls: type[Optimizer]) -> type[Optimizer]:
    """Class decorator adding an optimizer to the registry."""
    if cls.name in _REGISTRY:
        raise OptimizerError(f"duplicate optimizer name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def optimizer_names() -> list[str]:
    """Registered algorithm names, in registration order."""
    return list(_REGISTRY)


def get_optimizer(name: str, **kwargs: object) -> Optimizer:
    """Instantiate a registered optimizer by paper name.

    Special cases mirror the paper's variants: ``"DPP'"`` is DPP with
    the Lookahead Rule disabled (Table 2).
    """
    if name == "DPP'":
        from repro.core.dpp import DPPOptimizer
        return DPPOptimizer(lookahead=False, **kwargs)  # type: ignore[arg-type]
    cls = _REGISTRY.get(name)
    if cls is None:
        raise OptimizerError(
            f"unknown optimizer {name!r}; known: {optimizer_names()}")
    return cls(**kwargs)  # type: ignore[arg-type]
