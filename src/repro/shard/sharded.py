"""The sharded database facade.

:class:`ShardedDatabase` exposes the same query surface as
:class:`~repro.api.Database` — ``compile`` / ``optimize`` / ``execute``
/ ``query`` / ``query_many`` / ``explain`` / ``stats`` — so the query
service, the CLI and the observability stack work unchanged on top of
a shard fleet.  Construction partitions the corpus
(:mod:`repro.shard.partition`), persists each shard as a durable
single-shard database under its own directory, builds the merged
statistics the coordinator plans against, and starts one worker
process per shard (:mod:`repro.shard.coordinator`).

The execution contract differs from a single node in exactly two
documented ways: result tuples arrive in global document order (sorted
by the merge key — single-node plan output order is plan-dependent),
and cost-model counters are the *sum* of per-shard work (the
replicated root's postings are scanned once per shard, so counters are
diagnostics here, not an engine-parity surface).
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Iterator

from repro.errors import ShardError
from repro.api import Database, QueryResult
from repro.core.cost import CostFactors, CostModel
from repro.core.optimizer import OptimizationResult, get_optimizer
from repro.core.pattern import QueryPattern
from repro.core.plans import PhysicalPlan
from repro.document.document import XmlDocument
from repro.document.node import Region
from repro.engine.executor import (ExecutionResult, FirstResultTiming,
                                   StreamingExecution,
                                   measure_time_to_first,
                                   validate_engine)
from repro.engine.metrics import ExecutionMetrics
from repro.engine.tuples import MatchTuple, Schema
from repro.estimation.estimator import (CardinalityEstimator,
                                        ExactEstimator,
                                        PositionalEstimator)
from repro.obs.explain import (ExplainReport, OperatorAnalysis,
                               build_analysis)
from repro.obs.spans import (Span, TraceContext, Tracer,
                             assign_span_ids)
from repro.service.service import QueryService
from repro.shard.coordinator import (DEFAULT_TIMEOUT, ShardWorkerPool,
                                     merge_packed_runs)
from repro.shard.partition import ShardPartition, partition_document
from repro.storage.disk import FileDisk
from repro.xpath.parser import compile_xpath

__all__ = ["ShardedDatabase"]


class ShardedDatabase:
    """N durable shards behind one ``Database``-shaped facade."""

    #: every ``spans=True`` execution records its stitched trace into
    #: :attr:`tracer` directly (the stitch happens here, nowhere else);
    #: layers above (service trace sampling) must not record again.
    records_traces_in_execute = True

    def __init__(self, document: XmlDocument, shards: int = 2,
                 base_dir: "str | Path | None" = None,
                 engine: str = "block",
                 cost_factors: CostFactors | None = None,
                 histogram_grid: int = 16,
                 start_method: str = "spawn",
                 timeout: float = DEFAULT_TIMEOUT,
                 service_options: dict | None = None) -> None:
        if shards < 1:
            raise ShardError(f"shard count must be >= 1, got {shards}")
        self.engine = validate_engine(engine)
        self.shards = shards
        self.name = f"{document.name}-shards{shards}"
        self.cost_factors = cost_factors or CostFactors()
        self.cost_model = CostModel(self.cost_factors)
        self.histogram_grid = histogram_grid
        self.service_options = dict(service_options or {})
        self.tracer = Tracer()
        self._start_method = start_method
        self._timeout = timeout
        self._owns_dir = base_dir is None
        self._base_dir = (Path(tempfile.mkdtemp(prefix="repro-shards-"))
                          if base_dir is None else Path(base_dir))
        self._generation = 0
        #: one statistics epoch per shard, bumped whenever the shard's
        #: data (and thus its catalog/statistics) is rebuilt; the
        #: aggregate — their sum — keys the plan cache, so reloading
        #: any shard invalidates every cached plan.
        self._shard_epochs = [0] * shards
        self._shard_totals = [{"queries": 0, "rows": 0, "seconds": 0.0}
                              for _ in range(shards)]
        self._totals_mutex = threading.Lock()
        self._closed = False
        self.last_shard_profile: list[dict] = []
        self._service: QueryService | None = None
        self._exact_estimator: ExactEstimator | None = None
        self.document = document
        self.partition: ShardPartition
        self.workers: ShardWorkerPool
        self._load(document)

    # -- construction / lifecycle -----------------------------------------

    def _load(self, document: XmlDocument) -> None:
        """Partition, persist shard directories, start the workers."""
        self._generation += 1
        partition = partition_document(document, self.shards)
        generation_dir = self._generation_dir(self._generation)
        paths: list[str] = []
        for shard_id in range(self.shards):
            shard_dir = generation_dir / f"shard-{shard_id:02d}"
            shard_dir.mkdir(parents=True, exist_ok=True)
            pages_path = shard_dir / "pages.db"
            disk = FileDisk(pages_path)
            try:
                shard_database = Database.from_document(
                    partition.shard_document(shard_id), disk=disk)
                shard_database.persist()
            finally:
                disk.close()
            paths.append(str(pages_path))
        self.partition = partition
        self.document = document
        self._region_table: "list[Region | None] | None" = None
        self._estimator = PositionalEstimator(
            partition.merged_statistics(grid=self.histogram_grid))
        self._exact_estimator = None
        for shard_id in range(self.shards):
            self._shard_epochs[shard_id] += 1
        self.workers = ShardWorkerPool(paths,
                                       start_method=self._start_method,
                                       timeout=self._timeout)

    def _generation_dir(self, generation: int) -> Path:
        return self._base_dir / f"gen{generation:03d}"

    def _regions_by_start(self) -> "list[Region | None]":
        """Start label → region, over the whole corpus (lazy, cached).

        A list indexed by start label (``None`` at the label gaps the
        write path leaves): workers ship result rows as start labels,
        and a list's ``__getitem__`` is the cheapest lookup ``map`` can
        drive (21.1 → 17.0 ms against a dict over the 360 k labels of
        ``Q.Pers.3.d``).
        """
        if self._region_table is None:
            table: "list[Region | None]" = (
                [None] * (self.document.root.end + 1))
            for node in self.document:
                table[node.region.start] = node.region
            self._region_table = table
        return self._region_table

    def _merged_rows(self, payloads: list[dict]
                     ) -> Iterator[MatchTuple]:
        """The shards' packed runs as region rows in document order.

        The one gather→merge→rebuild path of :meth:`execute` and
        :meth:`stream_execute`.  Lazy end to end and free of per-row
        Python code: ``map`` looks each merged start label up in the
        region table and ``zip`` over *width* references to that one
        iterator cuts the stream into rows, so the first row costs
        *width* lookups and a consumer that stops early pays for
        nothing it did not read.
        """
        width = payloads[0]["width"]  # one schema, checked in _gather
        regions = map(self._regions_by_start().__getitem__,
                      merge_packed_runs(
                          [payload["rows"] for payload in payloads],
                          width))
        return zip(*[regions] * width)

    def reload(self, document: XmlDocument) -> None:
        """Replace the corpus: re-partition, re-persist, restart workers.

        Every shard's epoch is bumped, so the aggregate
        :attr:`statistics_epoch` changes and no plan cached against
        the old statistics can ever serve the new data.
        """
        self._require_open()
        previous_generation = self._generation
        self.workers.close()
        self._load(document)
        shutil.rmtree(self._generation_dir(previous_generation),
                      ignore_errors=True)
        if self._service is not None:
            self._service.invalidate()

    def close(self) -> None:
        """Stop the worker fleet and drop owned shard directories."""
        if self._closed:
            return
        self._closed = True
        self.workers.close()
        if self._owns_dir:
            shutil.rmtree(self._base_dir, ignore_errors=True)

    def _require_open(self) -> None:
        if self._closed:
            raise ShardError("sharded database is closed")

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- statistics -------------------------------------------------------

    @property
    def statistics_epoch(self) -> int:
        """Aggregate epoch: the sum of all per-shard epochs."""
        return sum(self._shard_epochs)

    def shard_epochs(self) -> list[int]:
        return list(self._shard_epochs)

    @property
    def estimator(self) -> CardinalityEstimator:
        """The merged-statistics estimator the coordinator plans with."""
        return self._estimator

    @property
    def exact_estimator(self) -> ExactEstimator:
        if self._exact_estimator is None:
            self._exact_estimator = ExactEstimator(self.document)
        return self._exact_estimator

    def warm_statistics(self, query: "str | QueryPattern") -> None:
        """Precompute the merged-statistics estimates a pattern needs."""
        pattern = self.compile(query)
        for node in pattern.nodes:
            self._estimator.node_cardinality(node)
        for edge in pattern.edges:
            self._estimator.edge_cardinality(pattern, edge.parent,
                                             edge.child)

    # -- optimization & execution -----------------------------------------

    def compile(self, query: "str | QueryPattern") -> QueryPattern:
        if isinstance(query, QueryPattern):
            return query
        return compile_xpath(query)

    def optimize(self, query: "str | QueryPattern",
                 algorithm: str = "DPP", exact: bool = False,
                 **options: object) -> OptimizationResult:
        """Plan **once**, against the merged statistics.

        The chosen plan is fanned out verbatim to every shard: shards
        share the global label space, so one plan is valid everywhere
        and per-shard optimization would only diverge the fleet.
        """
        pattern = self.compile(query)
        optimizer = get_optimizer(algorithm, cost_model=self.cost_model,
                                  **options)
        estimator = (self.exact_estimator if exact
                     else self._estimator)
        return optimizer.optimize(pattern, estimator)

    def execute(self, plan: PhysicalPlan, pattern: QueryPattern,
                engine: str | None = None, spans: bool = False,
                algorithm: str = "",
                trace_context: TraceContext | None = None
                ) -> ExecutionResult:
        """Scatter *plan* to every shard, gather, k-way merge.

        Returns the merged result in global document order (see the
        module docstring for the two contract differences from a
        single node).  With ``spans=True`` the execution runs as one
        distributed trace: a :class:`TraceContext` (fresh, or the
        caller's *trace_context*) rides with the plan to every worker,
        each worker ships its span subtree back serialized, and the
        subtrees are stitched under coordinator-side
        scatter/gather/merge spans into a single trace recorded in
        :attr:`tracer`.  The stitched tree's cost-counter shares sum
        *exactly* to the merged ``ExecutionMetrics`` — counters cross
        the pipe as ints, never re-measured.
        """
        self._require_open()
        engine = validate_engine(engine or self.engine)
        trace: TraceContext | None = None
        if spans:
            trace = trace_context or TraceContext.new()
        started = time.perf_counter()
        payloads, phases, node_ids, metrics = self._gather(
            plan, pattern, engine, trace)
        merge_started = time.perf_counter()
        tuples = list(self._merged_rows(payloads))
        merge_seconds = time.perf_counter() - merge_started
        metrics.wall_seconds = time.perf_counter() - started
        span: Span | None = None
        if spans:
            assert trace is not None
            span = self._stitch_trace(trace, payloads, phases, metrics,
                                      len(tuples), merge_seconds)
            self.tracer.record(span)
        return ExecutionResult(tuples=tuples, schema=Schema(node_ids),
                               metrics=metrics, span=span)

    def _gather(self, plan: PhysicalPlan, pattern: QueryPattern,
                engine: str, trace: TraceContext | None
                ) -> tuple[list[dict], dict[str, float], list[int],
                           ExecutionMetrics]:
        """Scatter *plan*, gather payloads, sum counters, book totals.

        Shared by :meth:`execute` and :meth:`stream_execute`; returns
        the payloads, this call's scatter/gather phase seconds, the
        agreed schema and the metrics.  The metrics carry the summed
        per-shard counters but no ``wall_seconds`` — the caller owns
        end-to-end timing (the streamed path keeps the clock running
        through the merge).
        """
        payloads, phases = self.workers.scatter_gather(
            plan, pattern, engine, want_span=trace is not None,
            trace_context=trace.to_dict() if trace is not None
            else None)
        node_ids = payloads[0]["node_ids"]
        for payload in payloads[1:]:
            if payload["node_ids"] != node_ids:
                raise ShardError(
                    f"shards disagree on the output schema: "
                    f"{node_ids} vs {payload['node_ids']}")
        metrics = ExecutionMetrics(factors=self.cost_factors)
        for payload in payloads:
            for name, value in payload["counters"].items():
                setattr(metrics, name, getattr(metrics, name) + value)
            metrics.page_reads += payload["page_reads"]
            metrics.buffer_hits += payload["buffer_hits"]
            metrics.buffer_misses += payload["buffer_misses"]
        with self._totals_mutex:
            for payload in payloads:
                totals = self._shard_totals[payload["shard_id"]]
                totals["queries"] += 1
                totals["rows"] += payload["row_count"]
                totals["seconds"] += payload["wall_seconds"]
            # per-shard profile of this execution (bench/diagnostics):
            # wall inflates under core contention, CPU time does not;
            # execution and reply packing are clocked apart
            self.last_shard_profile = [
                {"shard_id": payload["shard_id"],
                 "wall_seconds": payload["wall_seconds"],
                 "cpu_seconds": payload["cpu_seconds"],
                 "pack_seconds": payload["pack_seconds"],
                 "reply_bytes": payload["reply_bytes"],
                 "rows": payload["row_count"]}
                for payload in payloads]
        return payloads, phases, node_ids, metrics

    def stream_execute(self, plan: PhysicalPlan, pattern: QueryPattern,
                       engine: str | None = None,
                       cancel: "Callable[[], bool] | None" = None,
                       spans: bool = False,
                       trace_context: TraceContext | None = None,
                       ) -> StreamingExecution:
        """Scatter-gather, then stream rows out of the merge.

        Shards execute their plans to completion before shipping rows
        (the pipe protocol is one payload per shard), so what streams
        is the coordinator-side merge and region rebuild
        (:meth:`_merged_rows`, lazy): the first row leaves as soon as
        every shard has answered and the run boundaries (or, on the
        general path, the run heads) have been compared — not after
        the whole result has been rebuilt.  That is exactly the
        latency :meth:`time_to_first` reports as "honest" TTFR under
        scatter-gather.  *cancel* is checked per merged row; traced
        streams stitch and record their distributed trace when the
        stream finishes.
        """
        self._require_open()
        engine = validate_engine(engine or self.engine)
        trace: TraceContext | None = None
        if spans or trace_context is not None:
            trace = trace_context or TraceContext.new()
        started = time.perf_counter()
        payloads, phases, node_ids, metrics = self._gather(
            plan, pattern, engine, trace)
        merge_started = time.perf_counter()

        def finish(stream: StreamingExecution) -> None:
            metrics.wall_seconds = stream.total_seconds
            if trace is not None:
                span = self._stitch_trace(
                    trace, payloads, phases, metrics, stream.produced,
                    time.perf_counter() - merge_started)
                stream.span = span
                self.tracer.record(span)

        return StreamingExecution(
            Schema(node_ids), metrics, self._merged_rows(payloads),
            cancel=cancel, started=started, on_finish=finish)

    def time_to_first(self, query: "str | QueryPattern",
                      algorithm: str = "FP", results: int = 1,
                      **options: object) -> FirstResultTiming:
        """Optimize, then measure latency to the first *results* rows.

        Matches :meth:`repro.api.Database.time_to_first` but stays
        honest under scatter-gather: the clock starts before the
        scatter, and ``first_seconds`` is when the *results*-th row
        left the k-way merge — shard execution and gather are on the
        bill, and a fast first shard cannot mask a straggler because
        the merge needs every run's head before it can emit.
        """
        pattern = self.compile(query)
        optimization = self.optimize(pattern, algorithm=algorithm,
                                     **options)
        stream = self.stream_execute(optimization.plan, pattern)
        return measure_time_to_first(stream, results=results)

    def _stitch_trace(self, trace: TraceContext, payloads: list[dict],
                      phases: dict[str, float],
                      metrics: ExecutionMetrics, merged_rows: int,
                      merge_seconds: float) -> Span:
        """Assemble one distributed trace from the shard payloads.

        Structure: ``ShardScatterGather`` → [``scatter``, ``gather`` →
        one ``shard[i]`` wrapper per worker → that worker's rebuilt
        subtree, ``merge``].  Coordinator spans are stamped under the
        ``c`` prefix *before* the worker subtrees (already stamped
        ``s<shard>-…`` worker-side) are attached, then each subtree
        root is re-parented under its wrapper — so span ids are unique
        across the whole trace and parentage is well-formed without
        ever re-stamping worker spans.  Coordinator spans carry no
        metrics, so the trace's counter shares are exactly the worker
        shares, which sum to the merged totals by construction.
        *phases* are the scatter/gather seconds :meth:`_gather`
        returned with these very payloads.  A ``Shard`` wrapper's
        seconds are its worker's execution alone; the reply's
        sort-and-pack time and size, which the worker clocks
        separately, ride in the wrapper's detail.
        """
        root = Span("ShardScatterGather",
                    detail=f"scatter-gather[{self.shards} shards]")
        root.seconds = metrics.wall_seconds
        root.output_rows = merged_rows
        scatter = Span("ShardScatter", detail="scatter")
        scatter.seconds = phases["scatter"]
        gather = Span("ShardGather", detail="gather")
        gather.seconds = phases["gather"]
        merge = Span("ShardMerge", detail="merge")
        merge.seconds = merge_seconds
        merge.output_rows = merged_rows
        subtrees: list[tuple[Span, Span]] = []
        for payload in payloads:
            wrapper = Span(
                "Shard",
                detail=f"shard[{payload['shard_id']}] "
                       f"pack {payload['pack_seconds'] * 1e3:.2f} ms "
                       f"{payload['reply_bytes']} B")
            wrapper.seconds = payload["wall_seconds"]
            wrapper.output_rows = payload["row_count"]
            gather.children.append(wrapper)
            if payload["span"] is not None:
                subtrees.append((wrapper,
                                 Span.from_dict(payload["span"])))
        root.children = [scatter, gather, merge]
        assign_span_ids(root, trace.trace_id, trace.parent_span_id,
                        prefix="c")
        for wrapper, subtree in subtrees:
            subtree.parent_span_id = wrapper.span_id
            wrapper.children = [subtree]
        return root

    def query(self, query: "str | QueryPattern",
              algorithm: str = "DPP", engine: str | None = None,
              **options: object) -> QueryResult:
        """Optimize once, then scatter-gather execute."""
        pattern = self.compile(query)
        optimization = self.optimize(pattern, algorithm=algorithm,
                                     **options)
        execution = self.execute(optimization.plan, pattern,
                                 engine=engine, algorithm=algorithm)
        return QueryResult(optimization=optimization,
                           execution=execution)

    def query_many(self, queries, algorithm: str = "DPP",
                   workers: int | None = None,
                   engine: str | None = None,
                   **options: object) -> list[QueryResult]:
        return self.service.query_many(queries, algorithm=algorithm,
                                       workers=workers, engine=engine,
                                       **options)

    def whatif(self, query: "str | QueryPattern",
               algorithm: str = "DPP", factors=None,
               tag_scale: "dict[str, float] | None" = None,
               exact: bool = False, force_plan: str | None = None):
        """What-if analysis against the merged statistics (plan-once
        semantics); see :meth:`repro.api.Database.whatif`."""
        from repro.obs.planspace import run_whatif

        return run_whatif(self, query, algorithm=algorithm,
                          factors=factors, tag_scale=tag_scale,
                          exact=exact, force_plan=force_plan)

    def explain(self, query: "str | QueryPattern",
                algorithm: str = "DPP", analyze: bool = False,
                engine: str | None = None,
                plan_space: bool = False, top_k: int = 3,
                **options: object) -> ExplainReport:
        """EXPLAIN (ANALYZE) with a scatter-gather root.

        The analyzed tree has a synthetic ``ShardScatterGather`` root
        whose children are one fully annotated per-shard plan analysis
        each — estimate-vs-actual drift is visible *per shard*, which
        is exactly where partition skew shows up.  The report also
        carries the merged statistics' *provenance* — which shard
        contributed which share of each pattern tag's histogram mass —
        so a skewed estimate can be traced to the shard that supplied
        the mass behind it.
        """
        engine = validate_engine(engine or self.engine)
        started = time.perf_counter()
        pattern = self.compile(query)
        parse_seconds = time.perf_counter() - started
        label = query if isinstance(query, str) else repr(pattern)
        recorder = None
        if plan_space:
            from repro.core.planspace import PlanSpaceRecorder

            recorder = PlanSpaceRecorder()
            options = dict(options)
            options["planspace"] = recorder
        optimization = self.optimize(pattern, algorithm=algorithm,
                                     **options)
        report = ExplainReport(query=label, algorithm=algorithm,
                               engine=engine, optimization=optimization,
                               parse_seconds=parse_seconds)
        report.shards = {
            "count": self.shards,
            "statistics_provenance": self.partition.
            statistics_provenance(
                tags=[node.tag for node in pattern.nodes],
                grid=self.histogram_grid),
        }
        if not analyze:
            Database._attach_plan_space(report, recorder, label, top_k)
            return report
        execution = self.execute(optimization.plan, pattern,
                                 engine=engine, spans=True)
        assert execution.span is not None
        plan = optimization.plan
        shard_analyses: list[OperatorAnalysis] = []
        for wrapper in self._shard_wrappers(execution.span):
            children = [build_analysis(plan, child, pattern)
                        for child in wrapper.children]
            shard_analyses.append(OperatorAnalysis(
                label=wrapper.detail,
                estimated_rows=plan.estimated_cardinality,
                actual_rows=wrapper.output_rows,
                estimated_cost=plan.estimated_cost,
                actual_cost=sum(child.actual_cost
                                for child in children),
                seconds=wrapper.seconds,
                self_seconds=0.0, simulated_cost=0.0, counters={},
                children=children))
        report.analyze = True
        report.execution = execution
        report.root = OperatorAnalysis(
            label=f"ShardScatterGather[{self.shards}]",
            estimated_rows=plan.estimated_cardinality,
            actual_rows=len(execution),
            estimated_cost=plan.estimated_cost,
            actual_cost=sum(analysis.actual_cost
                            for analysis in shard_analyses),
            seconds=execution.span.seconds,
            self_seconds=execution.span.exclusive_seconds(),
            simulated_cost=0.0, counters={},
            children=shard_analyses)
        report.span = execution.span
        Database._attach_plan_space(report, recorder, label, top_k)
        return report

    @staticmethod
    def _shard_wrappers(span: Span) -> list[Span]:
        """The per-shard wrapper spans of one stitched trace."""
        for child in span.children:
            if child.name == "ShardGather":
                return list(child.children)
        return [child for child in span.children
                if child.name == "Shard"]

    # -- serving & observability ------------------------------------------

    @property
    def service(self) -> QueryService:
        """A plan-caching query service over the shard fleet.

        The facade satisfies the service's database contract, so plan
        caching (keyed on the aggregate statistics epoch), latency
        percentiles and aggregate engine counters come for free.
        """
        if self._service is None:
            self._service = QueryService(self, **self.service_options)
        return self._service

    def stats(self) -> dict[str, object]:
        """Service snapshot plus the shard fleet's own statistics.

        ``statistics_epoch`` is the aggregate plan-cache epoch and
        ``shards.epochs`` the per-shard epochs it sums — after any
        shard reload the aggregate moves, which is what keeps cached
        plans from outliving the statistics they were costed with.
        """
        snapshot = self.service.snapshot()
        snapshot["statistics_epoch"] = self.statistics_epoch
        with self._totals_mutex:
            totals = [dict(entry) for entry in self._shard_totals]
        snapshot["shards"] = {
            "count": self.shards,
            "epochs": self.shard_epochs(),
            "nodes": [assignment.node_count
                      for assignment in self.partition.assignments],
            "label_ranges": [[assignment.label_lo, assignment.label_hi]
                             for assignment in
                             self.partition.assignments],
            "alive": ([] if self.workers.closed
                      else self.workers.alive()),
            "totals": totals,
        }
        return snapshot

    def collect_gauges(self, registry) -> None:
        """Per-shard gauges for the service's metrics registry.

        Called by :meth:`QueryService._collect` before every export,
        so scrapes always see current per-shard ownership, liveness
        and cumulative work.
        """
        nodes = registry.gauge("repro_shard_nodes",
                               "Nodes owned per shard")
        queries = registry.gauge("repro_shard_queries_total",
                                 "Queries executed per shard")
        rows = registry.gauge("repro_shard_rows_total",
                              "Result rows produced per shard")
        seconds = registry.gauge("repro_shard_seconds_total",
                                 "Execution wall seconds per shard")
        alive_gauge = registry.gauge("repro_shard_alive",
                                     "Worker liveness per shard (0/1)")
        alive = ([False] * self.shards if self.workers.closed
                 else self.workers.alive())
        with self._totals_mutex:
            totals = [dict(entry) for entry in self._shard_totals]
        for assignment, worker_alive, entry in zip(
                self.partition.assignments, alive, totals):
            shard = str(assignment.shard_id)
            nodes.set(assignment.node_count, shard=shard)
            queries.set(entry["queries"], shard=shard)
            rows.set(entry["rows"], shard=shard)
            seconds.set(entry["seconds"], shard=shard)
            alive_gauge.set(1 if worker_alive else 0, shard=shard)
