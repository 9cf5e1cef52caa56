"""Cost-model calibration: learn ``CostFactors`` from traced runs.

The paper's Sec. 2.2.2 cost model prices plans with four
system-dependent weight factors — ``f_index``, ``f_sort``, ``f_io``,
``f_stack`` — which this repository has so far hard-coded as educated
guesses.  Every traced execution in the query log pins those factors
down empirically: an operator that reports counters
``(index_items, sort_units, buffered_results, stack_tuple_ops)`` and
measured wall time ``t`` contributes one equation

    t  ≈  f_index * index_items  +  f_sort * sort_units
        + f_io * 2 * buffered_results + f_stack * 2 * stack_tuple_ops

(the exact shape of ``ExecutionMetrics.simulated_cost``).  Fitting all
logged equations by **non-negative least squares** yields factors in
*seconds per operation* — after calibration the optimizer's cost units
and the engine's wall clock are one currency, which is what makes
estimate-vs-actual cost Q-errors meaningful.

Everything is stdlib: the design matrix has four columns, so the
normal equations are at most 4×4 and NNLS is solved exactly by
enumerating the 2⁴ active sets (each a tiny Gaussian elimination) and
keeping the feasible solution with the lowest residual — no SciPy
required, no iteration-count knobs.

Fit diagnostics come with the factors: residual RMSE and R², and a
per-factor standard error from the usual OLS covariance on the active
set, plus *coverage* (how many samples actually exercised each
counter family) so a factor fitted from two samples is not mistaken
for a measured constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.core.cost import COST_FACTOR_NAMES, CostFactors
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Database

__all__ = ["CalibrationResult", "FactorFit", "TraceSample",
           "calibrate_records", "cost_q_error", "evaluate_factors",
           "fit_cost_factors", "nonnegative_least_squares",
           "samples_from_records", "split_holdout"]

#: floor for cost-style Q-errors.  The classic Moerkotte clamp of 1.0
#: (used for cardinalities) is useless for wall seconds, which are
#: almost always < 1; this floor only guards log/divide-by-zero.
COST_QERROR_FLOOR = 1e-9


def cost_q_error(estimated: float, actual: float,
                 floor: float = COST_QERROR_FLOOR) -> float:
    """Symmetric estimate/actual ratio with a tiny positive floor."""
    estimated = max(float(estimated), floor)
    actual = max(float(actual), floor)
    return max(estimated, actual) / min(estimated, actual)


def counter_vector(counters: Mapping[str, object]) -> tuple[float, ...]:
    """The 4-vector multiplying ``(f_index, f_sort, f_io, f_stack)``.

    Mirrors :meth:`~repro.engine.metrics.ExecutionMetrics.simulated_cost`
    exactly, including the factor-2 on I/O (each buffered pair is
    written and re-read) and on stack ops (push + pop).
    """
    return (float(counters.get("index_items", 0) or 0),
            float(counters.get("sort_units", 0) or 0),
            2.0 * float(counters.get("buffered_results", 0) or 0),
            2.0 * float(counters.get("stack_tuple_ops", 0) or 0))


@dataclass(frozen=True)
class TraceSample:
    """One calibration equation: counter vector -> measured seconds."""

    vector: tuple[float, ...]
    seconds: float
    source: str = ""


def samples_from_records(
        records: Iterable[dict[str, object]]) -> list[TraceSample]:
    """Extract calibration samples from query-log records.

    Traced records yield one sample per operator (counter shares vs.
    the operator's *exclusive* wall time) — many well-separated
    equations per query.  Untraced records fall back to one
    query-level sample (run totals vs. total wall time).  Samples with
    an all-zero counter vector carry no information and are dropped.
    """
    samples: list[TraceSample] = []
    for record in records:
        operators = record.get("operators")
        if isinstance(operators, list) and operators:
            for entry in operators:
                if not isinstance(entry, dict):
                    continue
                counters = entry.get("counters")
                if not isinstance(counters, dict):
                    continue
                vector = counter_vector(counters)
                if not any(vector):
                    continue
                seconds = max(float(entry.get("self_seconds") or 0.0),
                              0.0)
                samples.append(TraceSample(
                    vector, seconds, str(entry.get("operator", ""))))
            continue
        counters = record.get("counters")
        if not isinstance(counters, dict):
            continue
        vector = counter_vector(counters)
        if not any(vector):
            continue
        seconds = max(float(record.get("wall_seconds") or 0.0), 0.0)
        samples.append(TraceSample(vector, seconds, "query"))
    return samples


def split_holdout(samples: Sequence[TraceSample],
                  holdout_every: int = 5
                  ) -> tuple[list[TraceSample], list[TraceSample]]:
    """Deterministic train/held-out split: every n-th sample is held
    out (n <= 1 trains and evaluates on everything)."""
    if holdout_every <= 1:
        return list(samples), list(samples)
    train = [sample for index, sample in enumerate(samples)
             if index % holdout_every]
    held = [sample for index, sample in enumerate(samples)
            if not index % holdout_every]
    if not train or not held:
        return list(samples), list(samples)
    return train, held


# -- the 4x4 linear algebra (stdlib only) --------------------------------

def _solve(matrix: list[list[float]],
           rhs: list[float]) -> list[float] | None:
    """Gaussian elimination with partial pivoting; None if singular."""
    size = len(matrix)
    augmented = [row[:] + [value] for row, value in zip(matrix, rhs)]
    for column in range(size):
        pivot = max(range(column, size),
                    key=lambda row: abs(augmented[row][column]))
        scale = max(abs(augmented[pivot][column]), 0.0)
        if scale <= 1e-300:
            return None
        augmented[column], augmented[pivot] = (augmented[pivot],
                                               augmented[column])
        head = augmented[column]
        for row in range(size):
            if row == column:
                continue
            factor = augmented[row][column] / head[column]
            if factor:
                augmented[row] = [a - factor * b
                                  for a, b in zip(augmented[row], head)]
    return [augmented[index][size] / augmented[index][index]
            for index in range(size)]


def _normal_equations(rows: Sequence[Sequence[float]],
                      targets: Sequence[float],
                      active: Sequence[int]
                      ) -> tuple[list[list[float]], list[float]]:
    xtx = [[sum(row[a] * row[b] for row in rows) for b in active]
           for a in active]
    xty = [sum(row[a] * t for row, t in zip(rows, targets))
           for a in active]
    return xtx, xty


def nonnegative_least_squares(
        rows: Sequence[Sequence[float]], targets: Sequence[float]
) -> tuple[list[float], float, tuple[int, ...]]:
    """Exact NNLS for (at most) four columns.

    Enumerates every active set, solves its normal equations, keeps
    feasible (all-non-negative) solutions and returns the one with
    the lowest residual sum of squares: ``(beta, rss, active_set)``.
    The empty set (all factors zero) is always feasible, so a result
    always exists.
    """
    width = len(rows[0]) if rows else 0
    best_beta = [0.0] * width
    best_rss = sum(t * t for t in targets)
    best_active: tuple[int, ...] = ()
    for mask in range(1, 1 << width):
        active = tuple(column for column in range(width)
                       if mask >> column & 1)
        # a column nobody exercised makes the normal equations
        # singular; skip masks that include one
        if any(all(row[column] == 0.0 for row in rows)
               for column in active):
            continue
        xtx, xty = _normal_equations(rows, targets, active)
        solution = _solve(xtx, xty)
        if solution is None:
            continue
        if any(value < -1e-18 for value in solution):
            continue
        beta = [0.0] * width
        for column, value in zip(active, solution):
            beta[column] = max(value, 0.0)
        rss = sum((sum(r * b for r, b in zip(row, beta)) - t) ** 2
                  for row, t in zip(rows, targets))
        if rss < best_rss - 1e-300 * max(best_rss, 1.0) or (
                math.isclose(rss, best_rss, rel_tol=1e-12)
                and len(active) < len(best_active)):
            best_beta, best_rss, best_active = beta, rss, active
    return best_beta, max(best_rss, 0.0), best_active


# -- results -------------------------------------------------------------

@dataclass
class FactorFit:
    """One fitted factor plus its uncertainty and data coverage."""

    name: str
    value: float
    stderr: float | None
    coverage: int

    @property
    def relative_error(self) -> float | None:
        """stderr / value — the per-factor confidence (None when the
        factor was not identifiable from the data)."""
        if self.stderr is None or self.value <= 0.0:
            return None
        return self.stderr / self.value


@dataclass
class CalibrationResult:
    """Fitted factors with residual diagnostics and holdout scores."""

    factors: CostFactors
    fits: list[FactorFit]
    samples: int
    rss: float
    rmse: float
    r2: float
    holdout: dict[str, float] = field(default_factory=dict)

    @property
    def improved(self) -> bool:
        """Did the learned factors beat the defaults on held-out data?"""
        learned = self.holdout.get("learned_q_error")
        default = self.holdout.get("default_q_error")
        if learned is None or default is None:
            return False
        return learned < default

    def apply(self, database: "Database") -> None:
        """Install the learned factors on *database* (swaps the cost
        model at runtime and invalidates every cached plan)."""
        database.set_cost_factors(self.factors)

    def to_dict(self) -> dict[str, object]:
        return {
            "factors": self.factors.to_dict(),
            "fits": [{
                "name": fit.name,
                "value": fit.value,
                "stderr": fit.stderr,
                "relative_error": fit.relative_error,
                "coverage": fit.coverage,
            } for fit in self.fits],
            "samples": self.samples,
            "rss": self.rss,
            "rmse": self.rmse,
            "r2": self.r2,
            "holdout": dict(self.holdout),
            "improved": self.improved,
        }

    def render(self) -> str:
        lines = [f"calibrated cost factors from {self.samples} traced "
                 f"samples (rmse {self.rmse:.3e} s, r2 {self.r2:.4f})"]
        for fit in self.fits:
            error = ("+/- n/a" if fit.stderr is None
                     else f"+/- {fit.stderr:.3e}")
            confidence = fit.relative_error
            extra = ("" if confidence is None
                     else f" ({confidence:.1%} rel)")
            lines.append(f"  {fit.name:8s} {fit.value:.6e} s/op "
                         f"{error}{extra}  [{fit.coverage} samples]")
        if self.holdout:
            lines.append(
                f"holdout ({int(self.holdout.get('samples', 0))} "
                f"samples): geomean cost q-error "
                f"{self.holdout.get('learned_q_error', 0.0):.3f} "
                f"learned vs "
                f"{self.holdout.get('default_q_error', 0.0):.3e} "
                f"default factors"
                f" -> {'improved' if self.improved else 'NOT improved'}")
        return "\n".join(lines)


def fit_cost_factors(samples: Sequence[TraceSample]) -> CalibrationResult:
    """Fit :class:`CostFactors` to *samples* by non-negative least
    squares; raises :class:`~repro.errors.ReproError` without data."""
    if not samples:
        raise ReproError(
            "cannot calibrate from an empty sample set; run a traced "
            "workload first (QueryLog with trace_sample >= 1)")
    rows = [list(sample.vector) for sample in samples]
    targets = [sample.seconds for sample in samples]
    beta, rss, active = nonnegative_least_squares(rows, targets)
    count = len(samples)
    rmse = math.sqrt(rss / count)
    mean = sum(targets) / count
    tss = sum((t - mean) ** 2 for t in targets)
    r2 = 1.0 - rss / tss if tss > 0 else (1.0 if rss == 0 else 0.0)
    stderrs = _standard_errors(rows, targets, beta, rss, active)
    fits = [FactorFit(
        name=name,
        value=beta[index],
        stderr=stderrs.get(index),
        coverage=sum(1 for row in rows if row[index] > 0.0),
    ) for index, name in enumerate(COST_FACTOR_NAMES)]
    factors = CostFactors(*beta)
    return CalibrationResult(factors=factors, fits=fits, samples=count,
                             rss=rss, rmse=rmse, r2=r2)


def _standard_errors(rows: Sequence[Sequence[float]],
                     targets: Sequence[float], beta: Sequence[float],
                     rss: float,
                     active: Sequence[int]) -> dict[int, float]:
    """OLS standard errors on the active set: sqrt(s2 * inv(X'X)_jj)."""
    if not active:
        return {}
    degrees = len(rows) - len(active)
    if degrees <= 0:
        return {}
    sigma2 = rss / degrees
    xtx, _ = _normal_equations(rows, targets, active)
    errors: dict[int, float] = {}
    size = len(active)
    for position, column in enumerate(active):
        unit = [1.0 if index == position else 0.0
                for index in range(size)]
        inverse_column = _solve([row[:] for row in xtx], unit)
        if inverse_column is None:
            continue
        variance = sigma2 * inverse_column[position]
        if variance >= 0.0:
            errors[column] = math.sqrt(variance)
    return errors


def evaluate_factors(factors: CostFactors,
                     samples: Sequence[TraceSample],
                     floor: float = COST_QERROR_FLOOR) -> float:
    """Geometric-mean cost Q-error of *factors* over *samples*.

    Predicts each sample's cost as the factor/counter dot product and
    compares with the measured seconds; 1.0 is a perfect model.
    """
    if not samples:
        return 1.0
    weights = factors.as_tuple()
    total = 0.0
    for sample in samples:
        predicted = sum(w * x for w, x in zip(weights, sample.vector))
        total += math.log(cost_q_error(predicted, sample.seconds, floor))
    return math.exp(total / len(samples))


def calibrate_records(records: Iterable[dict[str, object]],
                      holdout_every: int = 5,
                      baseline: CostFactors | None = None
                      ) -> CalibrationResult:
    """End-to-end: query-log records -> fitted, holdout-scored factors.

    Fits on the training split and scores both the learned factors and
    *baseline* (the hard-coded defaults unless given) on the held-out
    split, so callers — and the ``calibrate`` CLI — can verify the
    learned model actually predicts unseen operator costs better.
    """
    samples = samples_from_records(records)
    if not samples:
        raise ReproError(
            "query log holds no usable samples; records need counters "
            "(traced records with per-operator shares are best)")
    train, held = split_holdout(samples, holdout_every)
    result = fit_cost_factors(train)
    result.holdout = {
        "samples": float(len(held)),
        "learned_q_error": evaluate_factors(result.factors, held),
        "default_q_error": evaluate_factors(
            baseline if baseline is not None else CostFactors(), held),
    }
    return result
