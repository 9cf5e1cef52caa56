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

import json
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import ReproError
from repro.obs.spans import q_error

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Database
    from repro.obs.registry import MetricsRegistry

__all__ = ["AuditReport", "QueryAudit", "audit_records",
           "qerror_summary"]

#: pattern-node labels inside operator names: ``$3:employee``.
_TAG_PATTERN = re.compile(r"\$\d+:([^\s/)]+)")


def _operator_kind(label: str) -> str:
    """``stack-tree-desc($0:a // $1:b)`` -> ``stack-tree-desc``."""
    return label.split("(", 1)[0] or label


def _percentile(ordered: list[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    rank = max(1, round(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def qerror_summary(values: Iterable[float]) -> dict[str, float]:
    """count/p50/p95/max summary of a Q-error population."""
    ordered = sorted(values)
    return {
        "count": float(len(ordered)),
        "p50": _percentile(ordered, 0.50),
        "p95": _percentile(ordered, 0.95),
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
    #: flip forensics (``audit --why`` only): structural digest diff,
    #: the logged plan re-priced under current statistics, and the
    #: per-family cost crossover explaining why the choice moved.
    why: dict[str, object] | None = None

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
        if self.why is not None:
            payload["why"] = dict(self.why)
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
            if entry.why is not None:
                lines.extend(_render_why(entry.why))
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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


def _render_why(why: dict[str, object]) -> list[str]:
    """FLIP sublines for one entry's forensics payload."""
    lines: list[str] = []
    diff = why.get("diff")
    if isinstance(diff, dict):
        removed = ", ".join(str(op) for op in diff.get("removed", []))
        added = ", ".join(str(op) for op in diff.get("added", []))
        lines.append(f"    diff:    -[{removed or '-'}] +[{added or '-'}]"
                     f" ({diff.get('unchanged', 0)} unchanged)")
    if "logged_cost_now" in why:
        lines.append(
            f"    why:     logged plan re-priced under current "
            f"statistics: {why['logged_cost_now']:.1f} vs chosen "
            f"{why['current_cost']:.1f} (regret {why['regret']:+.1f})")
    crossover = why.get("crossover")
    if isinstance(crossover, dict):
        parts = ", ".join(f"{name} {delta:+.1f}"
                          for name, delta in crossover.items()
                          if abs(float(delta)) > 1e-9)
        lines.append(f"    crossover: {parts or 'no per-family delta'}")
    note = why.get("note")
    if note:
        lines.append(f"    note:    {note}")
    return lines


def _flip_forensics(database: "Database", pattern,
                    current_plan, current_cost: float,
                    logged_digest: str,
                    current_digest: str) -> dict[str, object]:
    """Explain one plan flip: structural diff plus cost crossover.

    The logged digest is rebuilt into a physical plan and re-priced
    under the **current** statistics and cost factors; the gap to the
    currently chosen plan's cost is the regret the flip avoided, and
    the per-family breakdown deltas say which Sec. 2.2.2 counter
    family moved the decision.
    """
    from repro.core.cost import CostModel
    from repro.core.enumeration import (EnumerationContext,
                                        estimate_plan_cost)
    from repro.core.planspace import FAMILIES, plan_cost_breakdown
    from repro.obs.planspace import plan_digest_diff, plan_from_digest

    why: dict[str, object] = {
        "diff": plan_digest_diff(logged_digest, current_digest),
        "current_cost": current_cost,
    }
    try:
        logged_plan = plan_from_digest(logged_digest, pattern)
    except ReproError as exc:
        why["note"] = f"logged plan could not be reconstructed: {exc}"
        return why
    factors = database.cost_factors
    context = EnumerationContext(pattern, CostModel(factors),
                                 database.estimator)
    logged_cost_now = estimate_plan_cost(logged_plan, context)
    why["logged_cost_now"] = logged_cost_now
    why["regret"] = logged_cost_now - current_cost
    logged_break = plan_cost_breakdown(logged_plan, factors)
    current_break = plan_cost_breakdown(current_plan, factors)
    why["crossover"] = {name: logged_break[name] - current_break[name]
                        for name in FAMILIES}
    return why


def audit_records(database: "Database",
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

    With ``why=True`` every flipped entry carries forensics: the
    structural digest diff, the logged plan re-priced under current
    statistics (via :func:`~repro.obs.planspace.plan_from_digest`),
    and the per-family cost crossover.
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
    from repro.service.cache import canonical_plan_digest

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
                entry.why = _flip_forensics(
                    database, pattern, result.plan,
                    result.estimated_cost, entry.logged_digest,
                    entry.current_digest)
            else:
                entry.why = {"note": "record carries no plan digest "
                                     "to diff against"}
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
