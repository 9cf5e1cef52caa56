"""Concurrent query service over one :class:`~repro.target.QueryTarget`.

The service is the repository's first step from "reproduction" to
"system that serves traffic": it runs batches of queries on a thread
pool, reuses plans through a :class:`~repro.service.cache.PlanCache`,
and keeps service-level observability — latency percentiles, cache
hit rate, and aggregate engine counters merged from each execution's
private :class:`~repro.engine.metrics.ExecutionMetrics`.

A finished query is observed once (:meth:`QueryService.
observe_served_query`): the registry's counters are the only tally of
queries and errors, and one entry per query — query, algorithm,
seconds, rows, trace id — is both what the slow-query log keeps and
the SLO exemplar of its latency bucket.

Thread-safety contract: the storage layer's buffer pool serializes
frame operations internally; each execution builds its operator tree
against a run-scoped engine context; the service's own mutable state
(latency reservoir, engine totals, slow-query log) is guarded by one
lock taken outside the hot operator loops, the registry by its own.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.pattern import QueryPattern
from repro.engine.metrics import ExecutionMetrics
from repro.obs.registry import (MetricsRegistry, SampleReservoir,
                                percentile)
from repro.obs.slo import DEFAULT_OBJECTIVES, SLOTracker
from repro.service.cache import PlanCache, cache_key
from repro.target import QueryResult, QueryTarget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.optimizer import OptimizationResult
    from repro.engine.executor import StreamingExecution
    from repro.obs.spans import TraceContext

#: Capacity of the latency reservoir backing percentile estimation.
#: Sampling is Algorithm R (uniform over all observations ever made),
#: not drop-oldest truncation — see
#: :class:`~repro.obs.registry.SampleReservoir`.
LATENCY_RESERVOIR = 8192

#: Slow-query threshold (seconds): queries at or above it land in the
#: slow-query log and count on ``repro_slow_queries_total``.
SLOW_QUERY_SECONDS = 0.25

#: Bound on the slow-query log (newest entries win).
SLOW_LOG_CAPACITY = 32

#: Thread-pool width of a ``query_many`` batch that names none.
BATCH_WORKERS = 4


class QueryService:
    """Plan-caching, thread-pooled query execution for one query
    target (a :class:`~repro.api.Database` or a shard fleet)."""

    def __init__(self, database: QueryTarget,
                 trace_sample: int = 0,
                 planspace_sample: int = 0) -> None:
        if trace_sample < 0:
            raise ValueError("trace_sample must be >= 0")
        if planspace_sample < 0:
            raise ValueError("planspace_sample must be >= 0")
        self.database = database
        self.cache = PlanCache()
        #: trace every n-th request through :meth:`stream` (0
        #: disables): sampled runs execute with spans on and land in
        #: ``database.tracer`` — on a fleet, a stitched cross-process trace.
        self.trace_sample = trace_sample
        #: record the plan space of every n-th plan-cache miss (0
        #: disables): sampled optimizations run with a
        #: :class:`~repro.core.planspace.PlanSpaceRecorder` attached and
        #: the rendered report lands in a bounded ring served by the
        #: ``/planspace`` endpoint of ``serve``.
        self.planspace_sample = planspace_sample
        #: declarative objectives evaluated over every served query.
        self.slo = SLOTracker(DEFAULT_OBJECTIVES)
        self._mutex = threading.Lock()
        self._latencies = SampleReservoir(LATENCY_RESERVOIR, seed=0)
        self._engine_totals = ExecutionMetrics(
            factors=database.cost_factors)
        self._sample_clocks = {"trace": 0, "planspace": 0}
        #: query text -> its compiled pattern, so a repeated text skips
        #: the XPath front-end and its plan-cache hit finds the very
        #: pattern the plan was made for
        self._compiled: dict[str, QueryPattern] = {}
        self._planspace_ring: deque[dict[str, object]] = deque(maxlen=16)
        self._slow_queries: deque[dict[str, object]] = deque(
            maxlen=SLOW_LOG_CAPACITY)
        #: one registry per service, so concurrent databases in one
        #: process (and tests) never share series.
        self.registry = MetricsRegistry()
        self._queries_total = self.registry.counter(
            "repro_queries_total", "Queries served")
        self._errors_total = self.registry.counter(
            "repro_query_errors_total", "Queries that raised")
        self._slow_total = self.registry.counter(
            "repro_slow_queries_total",
            "Queries slower than the slow-query threshold")
        self._latency_hist = self.registry.histogram(
            "repro_query_seconds", "End-to-end query latency")
        self._ttfr_hist = self.registry.histogram(
            "repro_time_to_first_seconds",
            "Time to the first streamed result row (serving path)")
        self._queue_wait_hist = self.registry.histogram(
            "repro_queue_wait_seconds",
            "Time between batch submission and execution start")
        self._optimize_hist = self.registry.histogram(
            "repro_optimize_seconds",
            "Optimizer time per plan-cache miss, labelled by algorithm")
        # the families below are fed only when there is a query log or
        # a write path (:meth:`_collect`) but registered for every
        # target, so their # TYPE lines appear in every scrape
        self.registry.counter(
            "repro_querylog_dropped_total",
            "Query-log records lost to a full queue or write errors")
        from repro.txn.mutate import write_path_histograms

        write_path_histograms(self.registry)
        # optimizer search-work counters, fed from each plan-cache
        # miss's OptimizerReport and labelled by algorithm — cache hits
        # did no search work and contribute nothing
        self._opt_plans_considered = self.registry.counter(
            "repro_optimizer_plans_considered_total",
            "Candidate moves priced by the optimizer, per algorithm")
        self._opt_statuses_generated = self.registry.counter(
            "repro_optimizer_statuses_generated_total",
            "Statuses materialized in the memo table, per algorithm")
        self._opt_statuses_pruned = self.registry.counter(
            "repro_optimizer_statuses_pruned_total",
            "Statuses discarded by the Pruning Rule, per algorithm")
        self._opt_deadends_avoided = self.registry.counter(
            "repro_optimizer_deadends_avoided_total",
            "Deadend statuses never generated (Lookahead Rule), "
            "per algorithm")
        self._opt_memo_hits = self.registry.counter(
            "repro_optimizer_memo_hits_total",
            "Re-derivations of an already-memoized status, per algorithm")
        self.registry.register_collector(self._collect)

    # -- serving ----------------------------------------------------------

    def stream(self, query: "str | QueryPattern",
               algorithm: str = "DPP", *,
               cancel: "Callable[[], bool] | None" = None,
               trace_context: "TraceContext | None" = None,
               **options: object
               ) -> "tuple[OptimizationResult, StreamingExecution]":
        """The one request path: sample, compile, plan, start the run.

        Every request — :meth:`query` and the network front-end alike
        — enters here, so 1-in-``trace_sample`` tracing counts on one
        clock however a request arrived.  A query text is compiled
        once: its pattern is kept in a map that holds at most the plan
        cache's capacity of texts, oldest out first, so a repeated
        text costs a dict probe here and its plan-cache hit hands out
        the cached plan as it is (the entry was made for this very
        pattern).  Returns the (cached)
        optimization and the unread
        :meth:`~repro.target.QueryTarget.stream_execute` handle, which
        receives *cancel* and *trace_context* as given; *options* are
        optimizer arguments and part of the plan-cache key.  Whoever
        reads the rows reports the outcome through
        :meth:`observe_served_query` — only the reader knows its
        latency and what it delivered.
        """
        traced = self._sampled("trace", self.trace_sample)
        pattern = (self._compiled.get(query) or self._compile(query)
                   if isinstance(query, str) else query)
        optimization = self.optimize_cached(pattern, algorithm, **options)
        return optimization, self.database.stream_execute(
            optimization.plan, pattern, cancel=cancel,
            spans=traced, trace_context=trace_context,
            algorithm=algorithm)

    def _compile(self, query: str) -> QueryPattern:
        """Compile *query* and remember its pattern, the oldest text
        making room once the plan cache's capacity of them is held."""
        pattern = self.database.compile(query)
        with self._mutex:
            if len(self._compiled) >= self.cache.capacity:
                del self._compiled[next(iter(self._compiled))]
            self._compiled[query] = pattern
        return pattern

    def query(self, query: "str | QueryPattern",
              algorithm: str = "DPP",
              submitted_at: float | None = None,
              **options: object) -> "QueryResult":
        """One request, buffered: :meth:`stream`, drained and observed.

        ``submitted_at`` (a ``perf_counter`` reading) is passed by the
        batch path so queue wait — submission to execution start — is
        observable separately from execution time.
        """
        started = time.perf_counter()
        if submitted_at is not None:
            self._queue_wait_hist.observe(max(0.0,
                                              started - submitted_at))
        try:
            optimization, stream = self.stream(query, algorithm,
                                               **options)
            execution = stream.result()
        except BaseException:
            self.observe_served_query(time.perf_counter() - started,
                                      error=True)
            raise
        span = execution.span
        self.observe_served_query(
            time.perf_counter() - started,
            trace_id=span.trace_id if span is not None else "",
            metrics=execution.metrics, rows=len(execution),
            query=query if isinstance(query, str) else repr(query),
            algorithm=algorithm)
        return QueryResult(optimization=optimization,
                           execution=execution)

    def observe_served_query(self, seconds: float, *,
                             time_to_first: "float | None" = None,
                             error: bool = False,
                             trace_id: str = "",
                             metrics: "ExecutionMetrics | None" = None,
                             rows: int = 0,
                             query: str = "",
                             algorithm: str = "") -> None:
        """Fold one finished query into the service totals.

        The one observation path: whoever read a :meth:`stream` —
        :meth:`query`, or the network front-end — reports here, so
        ``/metrics`` and ``/slo`` stay one coherent surface regardless
        of how the query entered the process.  *time_to_first* feeds
        both the ``repro_time_to_first_seconds`` histogram and the TTFR
        SLO; *error* covers failures **and deadline cancellations** (a
        cancelled request burned its latency budget without an answer,
        so the error budget pays).  *metrics* merges engine counters
        from completed streams into the aggregate totals.  The query's
        one entry is its SLO exemplar and, when it took
        :data:`SLOW_QUERY_SECONDS` or longer, its slow-query log entry.
        """
        entry = {"query": query, "algorithm": algorithm,
                 "seconds": seconds, "rows": rows, "trace_id": trace_id}
        if time_to_first is not None:
            self._ttfr_hist.observe(time_to_first)
        self.slo.observe_query(seconds, time_to_first=time_to_first,
                               error=error, entry=entry)
        if error:
            self._errors_total.inc()
            return
        self._queries_total.inc()
        self._latency_hist.observe(seconds)
        slow = seconds >= SLOW_QUERY_SECONDS
        if slow:
            self._slow_total.inc()
        with self._mutex:
            self._latencies.add(seconds)
            if metrics is not None:
                self._engine_totals.merge(metrics)
            if slow:
                self._slow_queries.append(entry)

    def _sampled(self, what: str, every: int) -> bool:
        """True when this call is the n-th of a 1-in-*every* sample of
        *what* (a trace per query, a plan space per cache miss)."""
        if not every:
            return False
        with self._mutex:
            self._sample_clocks[what] += 1
            return self._sample_clocks[what] % every == 0

    def query_many(self, queries: Sequence["str | QueryPattern"],
                   algorithm: str = "DPP",
                   workers: int | None = None,
                   **options: object) -> list["QueryResult"]:
        """Execute a batch of queries, results in input order.

        With ``workers > 1`` the batch runs on a thread pool; repeated
        patterns in the batch are optimized once (misses are
        single-flight in the plan cache).
        """
        workers = BATCH_WORKERS if workers is None else workers
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if workers == 1 or len(queries) <= 1:
            return [self.query(query, algorithm=algorithm, **options)
                    for query in queries]
        with ThreadPoolExecutor(
                max_workers=min(workers, len(queries)),
                thread_name_prefix="repro-query") as pool:
            futures = [pool.submit(self.query, query,
                                   algorithm=algorithm,
                                   submitted_at=time.perf_counter(),
                                   **options)
                       for query in queries]
            return [future.result() for future in futures]

    def optimize_cached(self, query: "str | QueryPattern",
                        algorithm: str = "DPP", **options: object):
        """Plan lookup with optimize-on-miss (single-flight).

        Misses record the optimizer's wall time in the
        ``repro_optimize_seconds`` histogram and the search-work
        counters of the ``repro_optimizer_*_total`` families, all
        labelled by algorithm — hits cost a dict probe and are
        deliberately not observed.  With ``planspace_sample`` set,
        every n-th miss also runs with a plan-space recorder attached
        and lands its report in the ring behind :meth:`planspace`.
        """
        pattern = self.database.compile(query)
        key = cache_key(pattern, algorithm, dict(options),
                        self.database.statistics_epoch)

        def compute():
            recorder = None
            run_options = options
            if self._sampled("planspace", self.planspace_sample):
                from repro.core.planspace import PlanSpaceRecorder

                recorder = PlanSpaceRecorder()
                run_options = dict(options)
                run_options["planspace"] = recorder
            result = self.database.optimize(pattern, algorithm=algorithm,
                                            **run_options)
            report = result.report
            self._optimize_hist.observe(
                report.optimization_seconds, algorithm=algorithm)
            for counter, work in (
                    (self._opt_plans_considered, report.plans_considered),
                    (self._opt_statuses_generated,
                     report.statuses_generated),
                    (self._opt_statuses_pruned, report.statuses_pruned),
                    (self._opt_deadends_avoided, report.deadends_avoided),
                    (self._opt_memo_hits, report.memo_hits)):
                if work:
                    counter.inc(work, algorithm=algorithm)
            if recorder is not None:
                self._retain_planspace(recorder, pattern, algorithm)
            return result

        return self.cache.get_or_compute(key, pattern, compute)

    def _retain_planspace(self, recorder, pattern: QueryPattern,
                          algorithm: str) -> None:
        """Render a sampled recorder into the bounded planspace ring."""
        from repro.obs.planspace import build_plan_space_report

        try:
            report = build_plan_space_report(recorder, query=str(pattern),
                                             top_k=3)
        except Exception:  # diagnostics must never fail the query
            return
        with self._mutex:
            self._planspace_ring.append(report.to_dict())

    def planspace(self, limit: int = 16) -> list[dict[str, object]]:
        """Last *limit* sampled plan-space reports, newest last.

        Backs the ``/planspace`` endpoint of ``serve``; empty
        unless the service was built with ``planspace_sample > 0``.
        """
        if limit < 1:
            raise ValueError("limit must be at least 1")
        with self._mutex:
            return list(self._planspace_ring)[-limit:]

    # -- lifecycle --------------------------------------------------------

    def invalidate(self) -> int:
        """Drop cached plans (called when the planning inputs change)."""
        return self.cache.invalidate()

    def on_cost_factors_changed(self, factors) -> None:
        """Re-price the aggregate engine counters after a runtime
        cost-factor swap on the database (which publishes the change,
        dropping the cached plans).  The counters are factor-independent
        measurements, so they are re-expressed under the new factors
        rather than reset — merges of future runs would otherwise raise
        a currency mismatch.
        """
        with self._mutex:
            self._engine_totals.reprice(factors)

    # -- observability ----------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Point-in-time service metrics.

        ``queries`` and ``errors`` read the registry's
        ``repro_queries_total`` / ``repro_query_errors_total``
        counters.  ``latency`` percentiles are in seconds over a uniform
        :data:`LATENCY_RESERVOIR`-sized sample of every query ever
        served (``observed`` counts the full population); ``engine``
        aggregates the per-execution cost-model counters of every
        query served; ``slow_queries`` is the slow-query log, oldest
        first.
        """
        with self._mutex:
            samples = self._latencies.values()
            observed = self._latencies.count
            slow_queries = list(self._slow_queries)
            totals = self._engine_totals
            engine = {
                "index_items": totals.index_items,
                "sort_count": totals.sort_count,
                "buffered_results": totals.buffered_results,
                "stack_tuple_ops": totals.stack_tuple_ops,
                "output_tuples": totals.output_tuples,
                "join_count": totals.join_count,
                "page_reads": totals.page_reads,
                "page_writes": totals.page_writes,
                "simulated_cost": totals.simulated_cost(),
                "wall_seconds": totals.wall_seconds,
            }
        return {
            "queries": int(self._queries_total.value()),
            "errors": int(self._errors_total.value()),
            "latency": {
                "p50_seconds": percentile(samples, 0.50),
                "p95_seconds": percentile(samples, 0.95),
                "p99_seconds": percentile(samples, 0.99),
                "max_seconds": max(samples) if samples else 0.0,
                "mean_seconds": (sum(samples) / len(samples)
                                 if samples else 0.0),
                "samples": len(samples),
                "observed": observed,
            },
            "slow_queries": slow_queries,
            "plan_cache": {
                "size": len(self.cache),
                "capacity": self.cache.capacity,
                **self.cache.stats.snapshot(),
            },
            "engine": engine,
            "slo": self.slo.snapshot(),
        }

    def traces(self, limit: int = 16) -> list[dict[str, object]]:
        """Last *limit* retained traces, newest last, JSON-able.

        Backs the ``/traces`` endpoint of ``serve``: on a
        sharded database each entry is one stitched cross-process
        trace; on a single node, a per-operator span tree.
        """
        if limit < 1:
            raise ValueError("limit must be at least 1")
        return [span.to_dict()
                for span in self.database.tracer.traces()[-limit:]]

    def _collect(self) -> None:
        """Registry collector: gauges from live pull-style sources.

        Runs before every export, so scrape output always reflects the
        current plan cache, engine totals, the database's own gauges
        (:meth:`~repro.target.QueryTarget.collect_gauges`) and its
        query log's drops without any instrumentation on their hot
        paths.
        """
        registry = self.registry
        cache_stats = self.cache.stats
        registry.gauge("repro_plan_cache_size",
                       "Cached plans").set(len(self.cache))
        registry.gauge("repro_plan_cache_hits",
                       "Plan cache hits").set(cache_stats.hits)
        registry.gauge("repro_plan_cache_misses",
                       "Plan cache misses").set(cache_stats.misses)
        registry.gauge("repro_plan_cache_evictions",
                       "Plan cache evictions").set(cache_stats.evictions)
        registry.gauge("repro_plan_cache_hit_rate",
                       "Plan cache hit rate").set(cache_stats.hit_rate)
        engine_gauge = registry.gauge(
            "repro_engine_counter_total",
            "Aggregate cost-model counters over all queries served")
        with self._mutex:
            for name, value in self._engine_totals.counters().items():
                engine_gauge.set(value, counter=name)
            registry.gauge(
                "repro_engine_simulated_cost_total",
                "Aggregate simulated cost over all queries served"
            ).set(self._engine_totals.simulated_cost())
        self.database.collect_gauges(registry)
        if self.database.query_log is not None:
            self.database.query_log.collect_gauges(registry)
        self.slo.collect(registry)

    def export_metrics(self, fmt: str = "prometheus") -> str:
        """Render the registry: ``"prometheus"`` text or ``"json"``."""
        if fmt == "prometheus":
            return self.registry.to_prometheus()
        if fmt == "json":
            return json.dumps(self.registry.to_dict(), indent=2,
                              sort_keys=True)
        raise ValueError(f"unknown metrics format {fmt!r}; "
                         f"expected 'prometheus' or 'json'")
