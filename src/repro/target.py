"""The query target: one planning and serving surface, two back ends.

The paper's contribution is plan *choice* — one optimizer run against
one set of statistics — and nothing about choosing a plan depends on
where the plan then runs.  :class:`QueryTarget` therefore owns every
operation that is planning or serving, the statistics included (one
:class:`~repro.estimation.estimator.Statistics` of the whole document,
on a fleet as on one node, so both plan alike), and a back end
supplies only what genuinely differs: how a plan is run (one
``stream_execute``; ``execute`` is that stream drained), its own
gauges and how it is closed (the abstract members below).  What a run
leaves behind is the same on both and recorded here, once
(:meth:`QueryTarget._finish_run`): the span tree an explain renders,
retained on the tracer, and the record the query log keeps.
:class:`~repro.api.Database` (one node) and
:class:`~repro.shard.sharded.ShardedDatabase` (a worker fleet) are the
two back ends; the query service, the HTTP front-end and the CLI call
this surface and never ask which one they hold.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ReproError
from repro.core.cost import CostFactors, CostModel
from repro.core.optimizer import OptimizationResult, get_optimizer
from repro.core.pattern import QueryPattern
from repro.core.plans import PhysicalPlan
from repro.document.document import XmlDocument
from repro.engine.executor import (ExecutionResult, FirstResultTiming,
                                   StreamingExecution,
                                   measure_time_to_first)
from repro.estimation.estimator import Statistics, SummaryEstimator
from repro.obs.explain import ExplainReport
from repro.obs.planspace import (WhatIfResult, build_plan_space_report,
                                 run_whatif)
from repro.obs.querylog import QueryLog, build_record
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span, TraceContext, Tracer
from repro.xpath.parser import compile_xpath

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.service import QueryService


@dataclass
class QueryResult:
    """Bundle returned by :meth:`QueryTarget.query`."""

    optimization: OptimizationResult
    execution: ExecutionResult

    def __len__(self) -> int:
        return len(self.execution)

    @property
    def plan(self) -> PhysicalPlan:
        return self.optimization.plan

    def explain(self) -> str:
        return self.optimization.explain()


class QueryTarget(abc.ABC):
    """Everything above the execution back end, written once."""

    document: XmlDocument | None

    def __init__(self, cost_factors: CostFactors | None,
                 service_options: dict | None) -> None:
        self.cost_factors = cost_factors or CostFactors()
        self.cost_model = CostModel(self.cost_factors)
        #: keyword arguments for the lazily built :class:`QueryService`
        #: (its trace and plan-space sampling rates).
        self.service_options = dict(service_options or {})
        #: optional persistent query log (see :meth:`attach_query_log`).
        self.query_log: QueryLog | None = None
        #: bounded ring of retained query span trees.
        self.tracer = Tracer()
        self._service: "QueryService | None" = None
        #: the per-tag statistics of :attr:`document` (not
        #: :meth:`Database.statistics`, the storage report)
        self.tag_statistics: Statistics | None = None
        self._estimator: SummaryEstimator | None = None
        #: bumped by :meth:`_publish_planning_inputs` alone, whenever
        #: what the optimizer plans with changes; part of every
        #: plan-cache key.
        self.statistics_epoch = 0

    def _require_document(self) -> XmlDocument:
        if self.document is None:
            raise ReproError("no document loaded")
        return self.document

    # -- what a back end supplies ------------------------------------------

    @abc.abstractmethod
    def stream_execute(self, plan: PhysicalPlan, pattern: QueryPattern,
                       engine: str = "block",
                       cancel: "Callable[[], bool] | None" = None,
                       spans: bool = False,
                       trace_context: TraceContext | None = None,
                       algorithm: str = "") -> StreamingExecution:
        """Run *plan* incrementally — the one run path of a back end.

        *engine* names the operators that run the plan: the block
        engine, or with ``"tuple"`` the reference iterators — a
        keyword of plan-level calls only (this one and
        :meth:`execute`), which is where the differential oracles and
        the Sec. 3.4 experiment say it; no request names an engine.
        *cancel* is consulted after each block is pulled, so deadlines
        stop the run mid-stream.  When the stream finishes — drained,
        cancelled or closed early — the back end's finish hook stamps
        a traced run's span tree (see :meth:`_trace_for`), exposes it
        as ``stream.span`` and hands the stream to :meth:`_finish_run`,
        which leaves behind everything the run owes; *algorithm* only
        annotates the log record.
        """

    def _explain_extras(self, report: ExplainReport,
                        pattern: QueryPattern) -> None:
        """Back-end additions to every explain report (default none)."""

    @abc.abstractmethod
    def collect_gauges(self, registry: MetricsRegistry) -> None:
        """Set this back end's gauges on *registry* (the query service
        calls it before every metrics export)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release what the back end holds open — files, worker
        processes; idempotent, and what leaving a ``with`` block does."""

    def __enter__(self) -> "QueryTarget":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- tracing ----------------------------------------------------------------

    @staticmethod
    def _trace_for(spans: bool, trace_context: TraceContext | None
                   ) -> TraceContext | None:
        """The context a run is traced under, or ``None`` for untraced.

        The one tracing rule of ``stream_execute`` on every back end:
        ``spans=True`` asks for a span tree, and a
        caller-propagated *trace_context* (an ``X-Trace-Id`` request
        header, say) forces one — its trace id names the tree;
        otherwise a traced run mints a fresh id.
        """
        if spans or trace_context is not None:
            return trace_context or TraceContext.new()
        return None

    def _retain_trace(self, span: Span) -> None:
        """Keep a finished, stamped span tree on :attr:`tracer`: a
        query run's (from :meth:`_finish_run`), a commit's or a
        checkpoint's (from the write path) — the one place a trace is
        retained."""
        self.tracer.record(span)

    def _finish_run(self, stream: StreamingExecution,
                    pattern: QueryPattern, plan: PhysicalPlan,
                    algorithm: str, statistics_epoch: int) -> None:
        """The one finish step of :meth:`stream_execute`, on both back
        ends, run exactly once per stream however it ends.

        A traced run's tree (``stream.span``, stamped by then) is
        retained on :attr:`tracer`; with a query log attached, a run
        read to its end appends one record — on a fleet as on a single
        node, the coordinator holding everything a record needs.  A
        run cancelled or closed early — a deadline, a ``limit``, a
        client gone — appends none: its partial counters would poison
        ``calibrate`` and ``audit``.
        """
        if stream.span is not None:
            self._retain_trace(stream.span)
        log = self.query_log
        if log is not None and stream.exhausted:
            log.record(build_record(
                pattern, plan, stream, algorithm=algorithm,
                engine=stream.engine, statistics_epoch=statistics_epoch,
                factors=self.cost_factors))

    # -- statistics -------------------------------------------------------------

    def _load_statistics(self, document: XmlDocument
                         ) -> SummaryEstimator:
        """Build :attr:`tag_statistics` from *document* with one scan;
        returns the estimator to plan against them with."""
        self.tag_statistics = Statistics(document)
        return self.tag_statistics.estimator()

    def _publish_planning_inputs(self,
                                 estimator: SummaryEstimator | None
                                 ) -> None:
        """The planning inputs changed: plan against *estimator* from
        now on, bump :attr:`statistics_epoch` and drop every cached
        plan.

        The one place either happens — a load or reload, a commit's
        publish step (:meth:`~repro.api.Database.publish`, under the
        publish lock), a cost-factor swap.
        """
        self._estimator = estimator
        self.statistics_epoch += 1
        if self._service is not None:
            self._service.invalidate()

    @property
    def estimator(self) -> SummaryEstimator:
        """The estimator :meth:`optimize` costs plans against: the
        per-tag counts and the label-path summary of
        :attr:`tag_statistics`, handed out afresh whenever they change
        (a load, a commit)."""
        self._require_document()
        assert self._estimator is not None
        return self._estimator

    def warm_statistics(self, query: str | QueryPattern) -> None:
        """Precompute the statistics a pattern's optimization needs.

        What the estimator derives for it — the label-path summary's
        steps — is memoized inside the summary
        (:meth:`~repro.estimation.estimator.CardinalityEstimator.warm`);
        benchmark harnesses call this before timing optimizers so that
        whichever algorithm runs first is not charged the one-time
        statistics derivation.
        """
        self.estimator.warm(self.compile(query))

    # -- optimization & execution -----------------------------------------------

    def compile(self, query: str | QueryPattern) -> QueryPattern:
        """Accept an XPath string or an already-built pattern."""
        if isinstance(query, QueryPattern):
            return query
        return compile_xpath(query)

    def optimize(self, query: str | QueryPattern,
                 algorithm: str = "DPP",
                 **options: object) -> OptimizationResult:
        """Choose a plan with one of the five paper algorithms.

        *algorithm* is a paper name: ``DP``, ``DPP``, ``DPP'``,
        ``DPAP-EB``, ``DPAP-LD`` or ``FP``.  Extra options are passed
        to the optimizer (e.g. ``expansion_bound`` for DPAP-EB).

        A query is planned **once**, against :attr:`estimator` — on a
        shard fleet the whole document's statistics, whose shards share
        the global label space, so the one plan is valid on every shard.
        """
        pattern = self.compile(query)
        optimizer = get_optimizer(algorithm, cost_model=self.cost_model,
                                  **options)
        return optimizer.optimize(pattern, self.estimator)

    def execute(self, plan: PhysicalPlan, pattern: QueryPattern,
                engine: str = "block",
                spans: bool = False,
                algorithm: str = "",
                trace_context: TraceContext | None = None
                ) -> ExecutionResult:
        """Run *plan* to completion: :meth:`stream_execute`, drained at
        once."""
        return self.stream_execute(
            plan, pattern, engine, spans=spans,
            trace_context=trace_context, algorithm=algorithm).result()

    def query(self, query: str | QueryPattern,
              algorithm: str = "DPP",
              **options: object) -> QueryResult:
        """Optimize then execute in one call (uncached; the service's
        :meth:`query_many` path goes through the plan cache)."""
        pattern = self.compile(query)
        optimization = self.optimize(pattern, algorithm=algorithm,
                                     **options)
        execution = self.execute(optimization.plan, pattern,
                                 algorithm=algorithm)
        return QueryResult(optimization=optimization, execution=execution)

    def time_to_first(self, query: str | QueryPattern,
                      algorithm: str = "FP", results: int = 1,
                      **options: object) -> FirstResultTiming:
        """Optimize, then measure latency to the first *results* rows
        of :meth:`stream_execute` on the tuple engine.

        Fully-pipelined plans (``algorithm="FP"``) deliver initial
        results without waiting for any sort to complete — the online-
        querying scenario of Sec. 3.4, an experiment about iterator
        pipelining, hence ``engine="tuple"``.  On a shard fleet the clock
        starts before the scatter and the first rows leave the merge
        once every shard has sent its own first *results* rows — each
        worker's head, ahead of the rest of its run — so a fast first
        shard cannot mask a straggler.
        """
        pattern = self.compile(query)
        optimization = self.optimize(pattern, algorithm=algorithm,
                                     **options)
        return measure_time_to_first(
            self.stream_execute(optimization.plan, pattern,
                                engine="tuple"),
            results=results)

    def explain(self, query: str | QueryPattern,
                algorithm: str = "DPP", analyze: bool = False,
                plan_space: bool = False, top_k: int = 3,
                **options: object) -> ExplainReport:
        """EXPLAIN (ANALYZE): the chosen plan, optionally annotated
        with measured per-operator cardinality, cost and wall time.

        With ``analyze=True`` the plan is executed under tracing and
        the report carries, for each operator, estimated vs. actual
        output cardinality and cost with their Q-errors, plus the
        operator's exact share of every cost-model counter (the shares
        sum exactly to the run's :class:`ExecutionMetrics`) — all read
        off the run's span tree (``report.span``), which the run's
        finish hook also recorded on :attr:`tracer`.

        With ``plan_space=True`` the optimization records its search
        space and the report carries a
        :class:`~repro.obs.planspace.PlanSpaceReport`: the *top_k*
        cheapest alternative plans with cost deltas, the pruning
        taxonomy, memo size, and why the winner won.
        """
        started = time.perf_counter()
        pattern = self.compile(query)
        parse_seconds = time.perf_counter() - started
        label = query if isinstance(query, str) else repr(pattern)
        recorder = None
        if plan_space:
            from repro.core.planspace import PlanSpaceRecorder

            recorder = PlanSpaceRecorder()
            options["planspace"] = recorder
        optimization = self.optimize(pattern, algorithm=algorithm,
                                     **options)
        report = ExplainReport(query=label, algorithm=algorithm,
                               optimization=optimization,
                               parse_seconds=parse_seconds)
        self._explain_extras(report, pattern)
        if analyze:
            report.execution = self.execute(optimization.plan, pattern,
                                            spans=True)
        if recorder is not None:
            report.plan_space = build_plan_space_report(
                recorder, query=label, top_k=top_k,
                trace_id=report.trace_id)
        return report

    def whatif(self, query: str | QueryPattern,
               algorithm: str = "DPP",
               factors: "CostFactors | None" = None,
               tag_scale: "dict[str, float] | None" = None,
               exact: bool = False,
               force_plan: str | None = None) -> WhatIfResult:
        """Re-optimize *query* under hypothetical conditions.

        Compares the current winner with the plan chosen under any
        combination of replacement cost *factors*, per-tag cardinality
        scaling (``tag_scale={"item": 10.0}``), every cluster's true
        count (``exact=True``), or a *force_plan* canonical
        digest priced as-if chosen.  Nothing is mutated: the plan
        cache, statistics epoch, and live cost factors are untouched.
        """
        return run_whatif(self, query, algorithm=algorithm,
                          factors=factors, tag_scale=tag_scale,
                          exact=exact, force_plan=force_plan)

    # -- serving & observability ------------------------------------------------

    @property
    def service(self) -> "QueryService":
        """The (lazily created) plan-caching query service.

        Its construction keywords — the trace and plan-space sampling
        rates — come from :attr:`service_options`.
        Plans are cached under :attr:`statistics_epoch`, so any change
        to the statistics makes every cached plan unreachable.
        """
        if self._service is None:
            from repro.service.service import QueryService

            self._service = QueryService(self, **self.service_options)
        return self._service

    def query_many(self, queries: Sequence[str | QueryPattern],
                   algorithm: str = "DPP",
                   workers: int | None = None,
                   **options: object) -> list[QueryResult]:
        """Execute a batch of queries concurrently, in input order.

        Optimization is amortized through the service's plan cache:
        repeated (isomorphic) patterns are optimized once per
        statistics epoch, including across threads — cache misses are
        single-flight.  ``workers=None`` uses the service default (4).
        """
        return self.service.query_many(queries, algorithm=algorithm,
                                       workers=workers, **options)

    def stats(self) -> dict[str, object]:
        """Service-level metrics snapshot; back ends add their own keys.

        Keys: ``queries``, ``errors``, ``latency`` (p50/p95/p99 …),
        ``plan_cache`` (hit rate, size, evictions), ``engine``
        (aggregate cost-model counters), ``slow_queries``, ``slo`` and
        ``statistics_epoch`` (the epoch every plan-cache key embeds —
        diff it across a reload to confirm cached plans were
        invalidated).
        """
        snapshot = self.service.snapshot()
        snapshot["statistics_epoch"] = self.statistics_epoch
        return snapshot

    def attach_query_log(self, log: QueryLog | None) -> None:
        """Attach (or with ``None`` detach) a persistent query log.

        From then on every run read to its end — buffered or streamed,
        direct or served, on a single node or a fleet — appends one
        record (asynchronously in file mode; :meth:`_finish_run`); a
        run cancelled or closed early (a deadline, a ``limit``, a
        client gone) appends none, its counters being partial.  A
        record carries per-operator detail when its run was traced
        (:meth:`_trace_for`); the log itself never asks for a trace.
        """
        self.query_log = log
