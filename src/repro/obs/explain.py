"""EXPLAIN ANALYZE: estimated vs. actual, per operator.

The paper's Sec. 2.2.2 cost model prices every plan in abstract cost
units derived from estimated cardinalities; the engines report the
same counters *measured*.  A traced execution's
:class:`~repro.obs.spans.Span` tree already joins the two — every
operator span carries the optimizer's estimates beside its measured
rows, wall time and exact share of every cost-model counter, and reads
off the Q-error of both estimates (:func:`~repro.obs.spans.q_error`) —
so an :class:`ExplainReport` renders that tree as it is: the operator
tree of a single node, or a fleet's stitched trace with one such tree
per shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.spans import Span, q_error

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.optimizer import OptimizationResult
    from repro.engine.executor import ExecutionResult
    from repro.obs.planspace import PlanSpaceReport

__all__ = ["ExplainReport"]


@dataclass
class ExplainReport:
    """Everything ``Database.explain`` produced for one query.

    With ``analyze=False`` only the optimizer's side is present; with
    ``analyze=True`` the plan was executed under tracing and
    ``execution`` (whose span tree is :attr:`span`) carries the
    measured side.
    """

    query: str
    algorithm: str
    optimization: "OptimizationResult"
    execution: "ExecutionResult | None" = None
    parse_seconds: float = 0.0
    #: sharded execution only: shard count plus the statistics'
    #: per-shard provenance (which shard owns which share of each
    #: pattern tag's nodes)
    shards: "dict[str, object] | None" = None
    #: present when explain ran with ``plan_space=True``: the search
    #: space behind the chosen plan (see :mod:`repro.obs.planspace`)
    plan_space: "PlanSpaceReport | None" = None

    @property
    def analyze(self) -> bool:
        return self.execution is not None

    @property
    def optimize_seconds(self) -> float:
        return self.optimization.report.optimization_seconds

    @property
    def span(self) -> Span | None:
        """The analyzed run's span tree — the per-operator record."""
        return self.execution.span if self.execution is not None else None

    @property
    def trace_id(self) -> str:
        """Join key to ``/traces`` (empty when the run was not traced)."""
        return self.span.trace_id if self.span is not None else ""

    @property
    def execute_seconds(self) -> float:
        if self.execution is None:
            return 0.0
        return self.execution.metrics.wall_seconds

    def max_rows_q_error(self) -> float:
        """The worst per-operator cardinality Q-error (1.0 if none)."""
        if self.span is None:
            return 1.0
        return max((span.rows_q_error() for span in self.span.walk()
                    if span.estimated_cardinality is not None),
                   default=1.0)

    def actual_totals(self) -> dict[str, float]:
        """Sum of per-operator counter shares over the whole plan."""
        totals: dict[str, float] = {}
        if self.span is None:
            return totals
        for span in self.span.walk_post_order():
            for name, value in span.counters().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def render(self) -> str:
        """Human-readable report (the CLI ``explain`` output)."""
        lines = [f"{self.algorithm} plan for {self.query}"]
        if self.shards is not None:
            provenance = self.shards.get("statistics_provenance", {})
            for tag in sorted(provenance):
                shares = ", ".join(
                    f"shard[{entry['shard_id']}] {entry['count']}"
                    f" ({entry['fraction'] * 100:.0f}%)"
                    for entry in provenance[tag])
                lines.append(f"statistics[{tag}]: {shares}")
        if not self.analyze:
            lines.append(self.optimization.explain())
            if self.plan_space is not None:
                lines.append("")
                lines.append(self.plan_space.render())
            return "\n".join(lines)
        assert self.span is not None
        lines.append(
            f"parse {self.parse_seconds * 1e3:.2f} ms"
            f" | optimize {self.optimize_seconds * 1e3:.2f} ms"
            f" | execute {self.execute_seconds * 1e3:.2f} ms")
        lines.append("operator rows=est/act (q=Q-error) "
                     "cost=est/act (q=Q-error) time=self")
        lines.append(self.span.render())
        metrics = self.execution.metrics
        lines.append(
            f"totals: {len(self.execution)} rows, estimated cost "
            f"{self.optimization.estimated_cost:.1f} vs actual "
            f"{metrics.simulated_cost():.1f} "
            f"(q={q_error(self.optimization.estimated_cost, metrics.simulated_cost()):.2f}), "
            f"max operator rows q-error {self.max_rows_q_error():.2f}")
        if self.trace_id:
            lines.append(f"trace: {self.trace_id}")
        if self.plan_space is not None:
            lines.append("")
            lines.append(self.plan_space.render())
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """JSON-able report (the ``explain --json`` payload)."""
        payload: dict[str, object] = {
            "query": self.query,
            "algorithm": self.algorithm,
            "analyze": self.analyze,
            "estimated_cost": self.optimization.estimated_cost,
            "parse_seconds": self.parse_seconds,
            "optimize_seconds": self.optimize_seconds,
            "trace_id": self.trace_id,
        }
        if self.shards is not None:
            payload["shards"] = self.shards
        if self.plan_space is not None:
            payload["plan_space"] = self.plan_space.to_dict()
        if self.execution is not None:
            metrics = self.execution.metrics
            payload.update({
                "execute_seconds": self.execute_seconds,
                "rows": len(self.execution),
                "actual_cost": metrics.simulated_cost(),
                "cost_q_error": q_error(self.optimization.estimated_cost,
                                        metrics.simulated_cost()),
                "max_rows_q_error": self.max_rows_q_error(),
                "totals": metrics.counters(),
                "plan": self.span.to_dict(),
            })
        else:
            payload["plan"] = self.optimization.explain()
        return payload
