"""Plan-regression auditing: replay the query log, flag drift.

A logged query carries the plan the optimizer chose *then*; replaying
its pattern through the optimizer *now* — under the current
statistics epoch and (possibly recalibrated) cost factors — tells us
whether the system would still make the same choice.  A changed plan
digest is a **plan flip**: expected after a deliberate calibration or
a data reload, alarming on an unchanged corpus (exactly how the
Demythization study caught join-strategy conclusions flipping when
measured costs diverged from modeled ones).

Alongside flips the auditor aggregates the logged per-operator
cardinality Q-errors by operator type and by XML tag, so systematic
estimation drift ("every ``eOccasional`` scan is off 8x") is visible
without reading individual EXPLAIN outputs.

Results land in three places:

* an :class:`AuditReport` value (``render()`` for humans, ``to_dict``
  for JSON);
* registry gauges — ``repro_plan_flips_total``,
  ``repro_plan_audit_queries``, and ``repro_qerror_p95{operator=…}`` —
  so drift is scrapeable by the same Prometheus endpoint as every
  other service metric;
* the ``audit`` CLI verb, which exits non-zero when flips are found
  (the ``calibrate-smoke`` CI job fails on that).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import ReproError
from repro.core.enumeration import EnumerationContext
from repro.core.plans import canonical_plan_digest
from repro.obs.planspace import PlanComparison, compare_plans
from repro.obs.registry import percentile
from repro.obs.spans import q_error

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
    from repro.target import QueryTarget

__all__ = ["AuditReport", "QueryAudit", "audit_records",
           "qerror_summary"]

#: pattern-node labels inside operator names: ``$3:employee``.
_TAG_PATTERN = re.compile(r"\$\d+:([^\s/)]+)")


def _operator_kind(label: str) -> str:
    """``stack-tree-desc($0:a // $1:b)`` -> ``stack-tree-desc``."""
    return label.split("(", 1)[0] or label


def qerror_summary(values: Iterable[float]) -> dict[str, float]:
    """count/p50/p95/max summary of a Q-error population."""
    ordered = sorted(values)
    return {
        "count": float(len(ordered)),
        "p50": percentile(ordered, 0.50),
        "p95": percentile(ordered, 0.95),
        "max": ordered[-1] if ordered else 0.0,
    }


@dataclass
class QueryAudit:
    """One replayed query: logged plan vs. the plan chosen now."""

    query: str
    algorithm: str
    signature: str
    logged_plan: str
    current_plan: str
    logged_estimated_cost: float
    current_estimated_cost: float
    #: canonical (node-renumbering-invariant) digests; flips are judged
    #: on these, since the replayed pattern is recompiled from XPath
    #: and its node ids need not match the originally logged plan's.
    logged_digest: str = ""
    current_digest: str = ""
    #: trace id of the latest logged run of this query (when it was
    #: traced): the join key from a flagged flip to the retained trace
    #: (``/traces``) that shows how the logged plan actually ran.
    trace_id: str = ""
    #: flip forensics (``audit --why`` only): the logged digest
    #: compared with the plan chosen now, under current statistics
    #: and cost factors.
    comparison: PlanComparison | None = None

    @property
    def why(self) -> dict[str, object] | None:
        """The comparison as JSON; ``logged_cost_now`` and ``regret``
        are the names this payload has always carried for the
        comparison's ``old_cost`` and ``margin``."""
        if self.comparison is None:
            return None
        payload = self.comparison.to_dict()
        if self.comparison.old_cost is not None:
            payload.update(logged_cost_now=self.comparison.old_cost,
                           regret=self.comparison.margin)
        return payload

    @property
    def flipped(self) -> bool:
        if self.logged_digest and self.current_digest:
            return self.logged_digest != self.current_digest
        return self.logged_plan != self.current_plan

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "query": self.query,
            "algorithm": self.algorithm,
            "signature": self.signature,
            "logged_plan": self.logged_plan,
            "current_plan": self.current_plan,
            "logged_digest": self.logged_digest,
            "current_digest": self.current_digest,
            "logged_estimated_cost": self.logged_estimated_cost,
            "current_estimated_cost": self.current_estimated_cost,
            "flipped": self.flipped,
            "trace_id": self.trace_id,
        }
        if self.comparison is not None:
            payload["why"] = self.why
        return payload


@dataclass
class AuditReport:
    """Everything one audit pass produced."""

    entries: list[QueryAudit] = field(default_factory=list)
    skipped: int = 0
    records_seen: int = 0
    qerror_by_operator: dict[str, dict[str, float]] = field(
        default_factory=dict)
    qerror_by_tag: dict[str, dict[str, float]] = field(
        default_factory=dict)

    @property
    def plan_flips(self) -> int:
        return sum(1 for entry in self.entries if entry.flipped)

    @property
    def queries_replayed(self) -> int:
        return len(self.entries)

    def to_dict(self) -> dict[str, object]:
        return {
            "records_seen": self.records_seen,
            "queries_replayed": self.queries_replayed,
            "plan_flips": self.plan_flips,
            "skipped": self.skipped,
            "entries": [entry.to_dict() for entry in self.entries],
            "qerror_by_operator": {
                kind: dict(stats)
                for kind, stats in sorted(self.qerror_by_operator.items())
            },
            "qerror_by_tag": {
                tag: dict(stats)
                for tag, stats in sorted(self.qerror_by_tag.items())
            },
        }

    def render(self) -> str:
        lines = [f"plan audit: {self.queries_replayed} distinct queries "
                 f"replayed from {self.records_seen} log records, "
                 f"{self.plan_flips} plan flip(s)"
                 + (f", {self.skipped} skipped" if self.skipped else "")]
        for entry in self.entries:
            if not entry.flipped:
                continue
            lines.append(f"  FLIP [{entry.algorithm}] {entry.query}")
            lines.append(f"    logged:  {entry.logged_plan} "
                         f"(est {entry.logged_estimated_cost:.1f})")
            lines.append(f"    current: {entry.current_plan} "
                         f"(est {entry.current_estimated_cost:.1f})")
            if entry.trace_id:
                lines.append(f"    trace:   {entry.trace_id}")
            if entry.comparison is not None:
                lines.append(entry.comparison.render())
        if self.qerror_by_operator:
            lines.append("cardinality q-error by operator type "
                         "(count / p50 / p95 / max):")
            for kind, stats in sorted(self.qerror_by_operator.items()):
                lines.append(
                    f"  {kind:18s} {int(stats['count']):5d} / "
                    f"{stats['p50']:.2f} / {stats['p95']:.2f} / "
                    f"{stats['max']:.2f}")
        if self.qerror_by_tag:
            lines.append("cardinality q-error by tag "
                         "(count / p50 / p95 / max):")
            for tag, stats in sorted(self.qerror_by_tag.items()):
                lines.append(
                    f"  {tag:18s} {int(stats['count']):5d} / "
                    f"{stats['p50']:.2f} / {stats['p95']:.2f} / "
                    f"{stats['max']:.2f}")
        return "\n".join(lines)

    def export_gauges(self, registry: "MetricsRegistry") -> None:
        """Publish the audit outcome as scrapeable gauges."""
        registry.gauge(
            "repro_plan_flips_total",
            "Plan flips found by the last plan audit"
        ).set(self.plan_flips)
        registry.gauge(
            "repro_plan_audit_queries",
            "Distinct queries replayed by the last plan audit"
        ).set(self.queries_replayed)
        p95 = registry.gauge(
            "repro_qerror_p95",
            "p95 per-operator cardinality Q-error from the query log")
        for kind, stats in self.qerror_by_operator.items():
            p95.set(stats["p95"], operator=kind)


def audit_records(database: "QueryTarget",
                  records: Iterable[dict[str, object]],
                  algorithm: str | None = None,
                  registry: "MetricsRegistry | None" = None,
                  why: bool = False) -> AuditReport:
    """Replay *records* through *database*'s optimizer and diff plans.

    Each distinct (query, algorithm) pair is replayed once, against
    its **latest** logged record (earlier plans may legitimately
    predate a statistics change the log also witnessed).  *algorithm*
    overrides the logged algorithm for every replay; records logged
    without one replay under the default DPP.  Queries that no longer
    compile or optimize are counted as skipped, not fatal.

    With ``why=True`` every flipped entry carries forensics — the
    logged digest against the plan chosen now
    (:func:`~repro.obs.planspace.compare_plans`): structural diff, the
    logged plan re-priced under current statistics, the per-family
    cost crossover.  A logged digest that is foreign, damaged or
    unpriceable degrades that entry to a ``note``; the others are
    still reported.
    """
    report = AuditReport()
    latest: dict[tuple[str, str], dict[str, object]] = {}
    operator_qerrors: dict[str, list[float]] = {}
    tag_qerrors: dict[str, list[float]] = {}
    for record in records:
        report.records_seen += 1
        query = record.get("query")
        if isinstance(query, str) and query:
            replay_algorithm = (algorithm
                                or str(record.get("algorithm") or "")
                                or "DPP")
            latest[(query, replay_algorithm)] = record
        operators = record.get("operators")
        if not isinstance(operators, list):
            continue
        for entry in operators:
            if not isinstance(entry, dict):
                continue
            label = str(entry.get("operator", ""))
            value = q_error(float(entry.get("estimated_rows") or 0.0),
                            float(entry.get("actual_rows") or 0))
            operator_qerrors.setdefault(
                _operator_kind(label), []).append(value)
            for tag in set(_TAG_PATTERN.findall(label)):
                tag_qerrors.setdefault(tag, []).append(value)
    for (query, replay_algorithm), record in latest.items():
        try:
            pattern = database.compile(query)
            result = database.optimize(pattern,
                                       algorithm=replay_algorithm)
        except ReproError:
            report.skipped += 1
            continue
        entry = QueryAudit(
            query=query,
            algorithm=replay_algorithm,
            signature=str(record.get("signature", "")),
            logged_plan=str(record.get("plan", "")),
            current_plan=result.plan.signature(),
            logged_digest=str(record.get("plan_digest", "")),
            current_digest=canonical_plan_digest(result.plan, pattern),
            logged_estimated_cost=float(
                record.get("estimated_cost") or 0.0),
            current_estimated_cost=result.estimated_cost,
            trace_id=str(record.get("trace_id", "")))
        if why and entry.flipped:
            if entry.logged_digest:
                entry.comparison = compare_plans(
                    entry.logged_digest, result.plan,
                    EnumerationContext(pattern, database.cost_model,
                                       database.estimator))
            else:
                entry.comparison = PlanComparison(
                    "", entry.current_digest, result.estimated_cost,
                    note="record carries no plan digest to diff against")
        report.entries.append(entry)
    report.entries.sort(key=lambda entry: (entry.algorithm, entry.query))
    report.qerror_by_operator = {
        kind: qerror_summary(values)
        for kind, values in operator_qerrors.items()}
    report.qerror_by_tag = {
        tag: qerror_summary(values)
        for tag, values in tag_qerrors.items()}
    if registry is not None:
        report.export_gauges(registry)
    return report
