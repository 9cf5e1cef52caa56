"""Measurement harness for the Sec. 4 experiments.

One *cell* of a paper table is (query, algorithm) on some database:
optimize, then execute the chosen plan, recording optimization wall
time, evaluation wall time, evaluation *simulated cost* (operation
counts weighted by the cost factors — the currency in which the
paper's shape claims are checked), result size, and the optimizer's
work counters.

Every plan a paper table reports is chosen by :func:`plan_cell`,
against :func:`paper_estimator` — the per-tag histograms of the
paper's estimator [17], not the label-path summary the database plans
its own queries with — so the tables stay the paper's experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from weakref import WeakKeyDictionary

from benchmarks.histogram import PositionalEstimator
from repro.api import Database
from repro.core.cost import CostFactors
from repro.core.optimizer import OptimizationResult, get_optimizer
from repro.core.pattern import QueryPattern
from repro.core.plans import PhysicalPlan
from repro.core.random_plans import worst_random_plan
from repro.document.document import XmlDocument
from repro.estimation.estimator import CardinalityEstimator
from repro.workloads.dblp import dblp_document
from repro.workloads.folding import fold_document
from repro.workloads.mbench import mbench_document
from repro.workloads.personnel import personnel_document
from repro.workloads.queries import PaperQuery


@dataclass
class CellResult:
    """Measurements for one (query, algorithm) cell."""

    query: str
    algorithm: str
    opt_seconds: float
    eval_seconds: float
    eval_simulated: float
    result_count: int
    plans_considered: int
    alternatives_considered: int
    estimated_cost: float
    fully_pipelined: bool
    left_deep: bool
    plan: PhysicalPlan = field(repr=False, default=None)  # type: ignore[assignment]


@dataclass
class ExperimentSetup:
    """Shared data-set sizing knobs for the experiment drivers.

    The defaults are laptop-scale stand-ins for the paper's data sets
    (Sec. 4.1): the relative structural character is preserved while
    absolute sizes stay small enough for a pure-Python engine.
    """

    pers_nodes: int = 2000
    dblp_entries: int = 400
    mbench_nodes: int = 3000
    seed: int = 42
    bad_plan_samples: int = 30
    #: optional learned factors (see ``repro.obs.calibrate``); None
    #: keeps the paper's hard-coded constants.  Every experiment then
    #: prices plans — and reports simulated cost — in the calibrated
    #: currency.
    cost_factors: CostFactors | None = None


@lru_cache(maxsize=16)
def _base_document(dataset: str, pers_nodes: int, dblp_entries: int,
                   mbench_nodes: int, seed: int) -> XmlDocument:
    if dataset == "pers":
        return personnel_document(target_nodes=pers_nodes, seed=seed)
    if dataset == "dblp":
        return dblp_document(entries=dblp_entries, seed=seed)
    if dataset == "mbench":
        return mbench_document(target_nodes=mbench_nodes, seed=seed)
    raise ValueError(f"unknown dataset {dataset!r}")


def dataset_database(dataset: str, setup: ExperimentSetup,
                     folding: int = 1) -> Database:
    """Build (or rebuild) the database for one data set, with folding."""
    document = _base_document(dataset, setup.pers_nodes,
                              setup.dblp_entries, setup.mbench_nodes,
                              setup.seed)
    if folding > 1:
        document = fold_document(document, folding)
    if setup.cost_factors is not None:
        return Database.from_document(document,
                                      cost_factors=setup.cost_factors)
    return Database.from_document(document)


#: the paper's estimator of each document, built once
_PAPER_ESTIMATORS: WeakKeyDictionary[XmlDocument, PositionalEstimator] = (
    WeakKeyDictionary())


def paper_estimator(database: Database) -> PositionalEstimator:
    """The paper's estimator over *database*'s document: positional
    and level histograms per tag, clusters combined under
    independence.  Built once per document, so every cell planned on
    one database shares it (and its edge memo)."""
    document = database.document
    estimator = _PAPER_ESTIMATORS.get(document)
    if estimator is None:
        estimator = _PAPER_ESTIMATORS[document] = (
            PositionalEstimator.from_document(document))
    return estimator


def plan_cell(database: Database, pattern: QueryPattern,
              algorithm: str = "DPP",
              estimator: CardinalityEstimator | None = None,
              **options: object) -> OptimizationResult:
    """Choose a plan for *pattern* as the experiments do: with
    *algorithm* under *database*'s cost model, against *estimator*
    (default: :func:`paper_estimator`), warmed first, so the
    optimizer's reported time excludes the statistics derivation."""
    if estimator is None:
        estimator = paper_estimator(database)
    estimator.warm(pattern)
    optimizer = get_optimizer(algorithm, cost_model=database.cost_model,
                              **options)
    return optimizer.optimize(pattern, estimator)


def run_cell(database: Database, query: PaperQuery, algorithm: str,
             **options: object) -> CellResult:
    """Optimize + execute one cell and collect every measurement."""
    optimization = plan_cell(database, query.pattern, algorithm,
                             **options)
    execution = database.execute(optimization.plan, query.pattern)
    return CellResult(
        query=query.name,
        algorithm=algorithm,
        opt_seconds=optimization.report.optimization_seconds,
        eval_seconds=execution.metrics.wall_seconds,
        eval_simulated=execution.metrics.simulated_cost(),
        result_count=len(execution),
        plans_considered=optimization.report.plans_considered,
        alternatives_considered=(
            optimization.report.alternatives_considered),
        estimated_cost=optimization.estimated_cost,
        fully_pipelined=optimization.plan.is_fully_pipelined,
        left_deep=optimization.plan.is_left_deep,
        plan=optimization.plan,
    )


def eval_bad_plan(database: Database, query: PaperQuery,
                  samples: int = 30, seed: int = 0) -> CellResult:
    """Execute the worst of *samples* random plans (Table 1 yardstick)."""
    started = time.perf_counter()
    plan, estimated = worst_random_plan(
        query.pattern, paper_estimator(database), samples=samples,
        seed=seed, cost_model=database.cost_model)
    opt_seconds = time.perf_counter() - started
    execution = database.execute(plan, query.pattern)
    return CellResult(
        query=query.name,
        algorithm="bad",
        opt_seconds=opt_seconds,
        eval_seconds=execution.metrics.wall_seconds,
        eval_simulated=execution.metrics.simulated_cost(),
        result_count=len(execution),
        plans_considered=samples,
        alternatives_considered=samples,
        estimated_cost=estimated,
        fully_pipelined=plan.is_fully_pipelined,
        left_deep=plan.is_left_deep,
        plan=plan,
    )
