"""The paper's contribution: structural join order selection.

This package contains the query-pattern model, the cost model
(Sec. 2.2.2), the status/move search space (Sec. 3.1.1), physical plan
trees, and the five optimization algorithms:

* :class:`~repro.core.dp.DPOptimizer` — exhaustive dynamic programming
* :class:`~repro.core.dpp.DPPOptimizer` — DP with pruning (and the
  DPP' no-lookahead variant)
* :class:`~repro.core.dpap.DPAPEBOptimizer` — expansion-bounded DPAP
* :class:`~repro.core.dpap.DPAPLDOptimizer` — left-deep-only DPAP
* :class:`~repro.core.fp.FPOptimizer` — fully-pipelined plans only
"""

from repro.core.pattern import (Axis, PatternEdge, PatternNode, Predicate,
                                QueryPattern)
from repro.core.cost import CostFactors, CostModel
from repro.core.plans import (IndexScanPlan, JoinAlgorithm, PhysicalPlan,
                              SortPlan, StructuralJoinPlan)
from repro.core.status import Move, Status, StatusNode
from repro.core.stats import OptimizerReport
from repro.core.optimizer import (Optimizer, OptimizationResult,
                                  get_optimizer, optimizer_names)
from repro.core.dp import DPOptimizer
from repro.core.dpp import DPPOptimizer
from repro.core.dpap import DPAPEBOptimizer, DPAPLDOptimizer
from repro.core.fp import FPOptimizer
from repro.core.random_plans import RandomPlanGenerator, worst_random_plan
from repro.core.planspace import PlanSpaceRecorder, SearchEvent
from repro.core.viz import plan_to_dot, trace_to_dot

__all__ = [
    "Axis", "PatternEdge", "PatternNode", "Predicate", "QueryPattern",
    "CostFactors", "CostModel",
    "IndexScanPlan", "JoinAlgorithm", "PhysicalPlan", "SortPlan",
    "StructuralJoinPlan",
    "Move", "Status", "StatusNode",
    "OptimizerReport",
    "Optimizer", "OptimizationResult", "get_optimizer", "optimizer_names",
    "DPOptimizer", "DPPOptimizer",
    "DPAPEBOptimizer", "DPAPLDOptimizer",
    "FPOptimizer",
    "RandomPlanGenerator", "worst_random_plan",
]
