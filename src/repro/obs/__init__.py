"""Observability: spans, EXPLAIN ANALYZE, metrics, and the feedback loop.

Six pieces, threaded through every layer of the system:

* :mod:`repro.obs.spans` — per-query span trees (pipeline stages plus
  one span per plan operator in both engines): the one per-operator
  record, with the optimizer's estimates, exact shares of the
  cost-model counters and the Q-errors between them;
* :mod:`repro.obs.explain` — the report that renders such a tree
  (``Database.explain(query, analyze=True)``);
* :mod:`repro.obs.registry` — named counters/gauges/histograms with
  Prometheus-text and JSON exporters, interpolated histogram
  quantiles, plus the uniform
  :class:`~repro.obs.registry.SampleReservoir` backing the query
  service's latency percentiles;
* :mod:`repro.obs.querylog` — a durable, size-bounded JSONL log of
  executed queries, written asynchronously, with rotation and a
  corruption-tolerant reader;
* :mod:`repro.obs.calibrate` — fits
  :class:`~repro.core.cost.CostFactors` from logged traced runs by
  non-negative least squares, with residuals, per-factor confidence
  and holdout scoring;
* :mod:`repro.obs.audit` — replays logged patterns through the
  optimizer under current statistics/factors and flags plan flips and
  Q-error drift (human report + scrapeable gauges);
* :mod:`repro.obs.slo` — declarative service-level objectives over
  the live query stream: compliance, error-budget burn rates and
  per-bucket trace exemplars (``/slo``).

Spans carry trace identity (:class:`repro.obs.spans.TraceContext`)
across process boundaries, so a sharded query stitches every worker's
subtree into one distributed trace whose counter shares sum exactly
to the merged totals.

All engine-level instrumentation is zero-cost when disabled: a single
``is None`` check per operator per execution, never per tuple.
"""

from repro.obs.explain import ExplainReport
from repro.obs.registry import (BucketRecorder, Counter, Gauge,
                                Histogram, MetricsRegistry,
                                SampleReservoir)
from repro.obs.slo import DEFAULT_OBJECTIVES, SLObjective, SLOTracker
from repro.obs.spans import (FrozenMetrics, Span, TraceContext, Tracer,
                             assign_span_ids, q_error)
from repro.obs.querylog import (QueryLog, QueryLogScan, build_record,
                                read_query_log, signature_digest)
from repro.obs.calibrate import (CalibrationResult, FactorFit,
                                 TraceSample, calibrate_records,
                                 cost_q_error, evaluate_factors,
                                 fit_cost_factors, samples_from_records)
from repro.obs.audit import AuditReport, QueryAudit, audit_records

__all__ = [
    "ExplainReport",
    "q_error",
    "BucketRecorder",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SampleReservoir",
    "DEFAULT_OBJECTIVES",
    "SLObjective",
    "SLOTracker",
    "FrozenMetrics",
    "Span",
    "TraceContext",
    "Tracer",
    "assign_span_ids",
    "QueryLog",
    "QueryLogScan",
    "build_record",
    "read_query_log",
    "signature_digest",
    "CalibrationResult",
    "FactorFit",
    "TraceSample",
    "calibrate_records",
    "cost_q_error",
    "evaluate_factors",
    "fit_cost_factors",
    "samples_from_records",
    "AuditReport",
    "QueryAudit",
    "audit_records",
]
