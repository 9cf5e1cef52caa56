"""Cost model for the physical operations (Sec. 2.2.2).

The paper costs four physical operations with per-system weight
factors:

* index access of ``n`` items:      ``f_I * n``
* sort of ``n`` items:              ``n * log2(n) * f_s``
* Stack-Tree-Anc join:              ``2 * |AB| * f_IO + 2 * |A| * f_st``
* Stack-Tree-Desc join:             ``2 * |A| * f_st``

where ``|A|`` is the cardinality of the ancestor-side input and
``|AB|`` the cardinality of the join output.  Each formula is written
here once; :meth:`CostModel.join` maps a plan's algorithm to its
formula and :meth:`CostModel.by_family` gives every price its split
across the four factors.  The same factors are
reused by :mod:`repro.engine.metrics` to convert measured operation
counts into *simulated seconds*, so the optimizer's estimates and the
engine's reports are expressed in one currency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

from repro.errors import OptimizerError, PlanError
from repro.core.plans import JoinAlgorithm

#: the four factors, in the positional order ``CostFactors`` takes
#: them — shared by the calibrator, which fits them as a vector, and
#: the key set of every per-family cost split.
COST_FACTOR_NAMES = ("f_index", "f_sort", "f_io", "f_stack")


@dataclass(frozen=True, slots=True)
class CostFactors:
    """Weight factors normalizing the four physical operations.

    Defaults model a system where disk I/O is the expensive operation,
    sorting costs more per item than a stack operation, and index
    access is cheap per retrieved item — the relative magnitudes the
    paper's experiments imply (I/O-bound STA joins, sort-heavy
    left-deep plans).  The sort/IO ratio places the blocking-vs-
    pipelined crossover (Table 3 / Sec. 4.3) around ``n*log2(n*) =
    2*f_io/f_sort``, i.e. intermediate results of ~64K tuples at the
    defaults — inside the folding range the benchmarks sweep.  Units
    are arbitrary "cost units" out of the box; the calibrator
    (:mod:`repro.obs.calibrate`) replaces them with measured
    seconds-per-operation, after which estimated and actual costs are
    directly comparable.
    """

    f_index: float = 1.0
    f_sort: float = 2.0
    f_io: float = 16.0
    f_stack: float = 1.0

    def __post_init__(self) -> None:
        for name in COST_FACTOR_NAMES:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise OptimizerError(f"cost factor {name} must be finite "
                                     f"and >= 0, got {value}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        """The factors in :data:`COST_FACTOR_NAMES` order."""
        return (self.f_index, self.f_sort, self.f_io, self.f_stack)

    def to_dict(self) -> dict[str, float]:
        """JSON-able mapping (query-log records, calibration output)."""
        return {name: getattr(self, name) for name in COST_FACTOR_NAMES}

    @classmethod
    def from_dict(cls, payload: Mapping[str, float]) -> "CostFactors":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        unknown = set(payload) - set(COST_FACTOR_NAMES)
        if unknown:
            raise OptimizerError(
                f"unknown cost factor(s) {sorted(unknown)}; "
                f"expected {COST_FACTOR_NAMES}")
        return cls(**{name: float(value)
                      for name, value in payload.items()})


class CostModel:
    """Evaluates the Sec. 2.2.2 cost formulae for given cardinalities.

    The factors are **swappable at runtime** via :meth:`set_factors`:
    a database that applies calibrated factors mid-flight re-prices
    every subsequent optimization without rebuilding its optimizers.
    Callers that cache plans priced with the old factors must
    invalidate them (``Database.set_cost_factors`` bumps the
    statistics epoch for exactly that reason).
    """

    def __init__(self, factors: CostFactors | None = None) -> None:
        self.factors = factors or CostFactors()

    def set_factors(self, factors: CostFactors) -> None:
        """Swap the weight factors for all subsequent cost evaluations."""
        if not isinstance(factors, CostFactors):
            raise OptimizerError(
                f"set_factors expects CostFactors, got "
                f"{type(factors).__name__}")
        self.factors = factors

    def index_access(self, items: int) -> float:
        """Cost of retrieving *items* postings from the tag index."""
        self._check(items, "items")
        return self.factors.f_index * items

    def sort(self, items: int) -> float:
        """Cost of sorting *items* tuples (``n log n``)."""
        self._check(items, "items")
        if items <= 1:
            return 0.0
        return items * math.log2(items) * self.factors.f_sort

    def stack_tree_anc(self, ancestor_cardinality: float,
                       output_cardinality: float) -> float:
        """Stack-Tree-Anc: buffers output lists, paying I/O on |AB|."""
        self._check(ancestor_cardinality, "ancestor cardinality")
        self._check(output_cardinality, "output cardinality")
        return (2.0 * output_cardinality * self.factors.f_io
                + 2.0 * ancestor_cardinality * self.factors.f_stack)

    def stack_tree_desc(self, ancestor_cardinality: float) -> float:
        """Stack-Tree-Desc: pure streaming, stack work only."""
        self._check(ancestor_cardinality, "ancestor cardinality")
        return 2.0 * ancestor_cardinality * self.factors.f_stack

    def join(self, algorithm: JoinAlgorithm, ancestor_cardinality: float,
             output_cardinality: float) -> float:
        """The price of one structural join by physical *algorithm* —
        the one place a plan's algorithm meets its formula.  An
        algorithm Sec. 2.2.2 gives no formula for cannot be priced."""
        if algorithm is JoinAlgorithm.STACK_TREE_ANC:
            return self.stack_tree_anc(ancestor_cardinality,
                                       output_cardinality)
        if algorithm is JoinAlgorithm.STACK_TREE_DESC:
            return self.stack_tree_desc(ancestor_cardinality)
        raise PlanError(f"no Sec. 2.2.2 formula for {algorithm}")

    def by_family(self) -> dict[str, "CostModel"]:
        """One single-factor model per counter family, keyed in
        :data:`COST_FACTOR_NAMES` order.

        Every formula above is linear in the factors, so an operation
        priced under the model that keeps only ``f_k`` is exactly that
        operation's ``f_k`` term.  The per-family split of any price is
        therefore the same formula evaluated under each of these
        models — never a second spelling of it.
        """
        none = CostFactors(0.0, 0.0, 0.0, 0.0)
        return {name: CostModel(replace(
                    none, **{name: getattr(self.factors, name)}))
                for name in COST_FACTOR_NAMES}

    @staticmethod
    def _check(value: float, what: str) -> None:
        if value < 0:
            raise OptimizerError(f"{what} must be >= 0, got {value}")
