"""The sharded query target.

:class:`ShardedDatabase` is the :class:`~repro.target.QueryTarget`
whose back end is a shard fleet: planning, explain, what-if and the
query service are the base class's, so the CLI, the HTTP front-end and
the observability stack run on it exactly as on a
:class:`~repro.api.Database`.  Construction partitions the corpus
(:mod:`repro.shard.partition`), persists each shard as a durable
single-shard database under its own directory, builds the statistics
the coordinator plans against from the whole document it holds — one
scan, exactly as a single node builds them, so a fleet plans exactly
like one — and starts one worker process per shard
(:mod:`repro.shard.coordinator`).

A fleet returns exactly the rows a single node returns for the same
plan, in the same order: each worker ships its rows in the order the
plan produced them, and the coordinator merges the runs by the plan's
``ordered_by`` column (:func:`~repro.shard.coordinator.merge_packed_runs`).
The execution contract differs from a single node in exactly two
documented ways: cost-model counters are the *sum* of per-shard work
(the replicated root's postings are scanned once per shard, so
counters are diagnostics here, not an engine-parity surface); and **a
twig that branches at the document root is refused** with a typed
:class:`~repro.errors.UnshardablePatternError` (a ``ShardError``, the
one kind the HTTP front-end answers 400) before anything is scattered
— a pattern whose root's node test holds of the replicated document
root and which has two or more pattern children, when more than one
shard owns data.  Such a match may take its branches from different
shards (``/r[a][b]`` with every ``a`` in shard 0 and every ``b`` in
shard 1) and no shard can see it: the partitioning invariant is about
structural *pairs*, not twigs (:mod:`repro.shard.partition`).  Two of
the paper's queries are of this kind (``Q.DBLP.1.b`` / ``2.c``,
``dblp[article/...][inproceedings/...]``); run them on a single node.

A stream reads the fleet as the block engine's root reads a single
node: nothing is scattered before its first pull, and every worker
answers with a head, then the rest of its run as one packed payload.
The first pull sizes the head — one row for a stream reader, whose
first rows leave as soon as every worker has sent its head; the whole
run for a buffered read (``execute``), whose rest is empty — so a
worker-side failure surfaces at the first pull, not at
:meth:`ShardedDatabase.stream_execute`.  The stitched trace's
``Shard`` spans are a run's per-shard record; ``stats()`` carries the
cumulative per-shard totals, which the pool's I/O thread — the one
owner of the worker pipes — books a run into as its payloads land,
whether or not its stream is read.  A result's rows stay packed
(:class:`~repro.engine.tuples.PackedRows`), and every block a reader
is handed is a slice of them.  Their ``Region`` view is a single
node's (:func:`~repro.engine.executor.region_view`) over the whole
corpus the coordinator holds, whose label table is built for the
first caller that asks for regions, never for ``blocks()``,
``fetchall()`` or ``len()``.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from collections import deque
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from repro.errors import ShardError, UnshardablePatternError
from repro.api import Database
from repro.core.cost import CostFactors
from repro.core.pattern import QueryPattern
from repro.core.plans import PhysicalPlan
from repro.document.document import XmlDocument
from repro.engine import blocks as engine_blocks
from repro.engine.executor import (StreamingExecution, region_view,
                                   validate_engine)
from repro.engine.metrics import ExecutionMetrics
from repro.engine.tuples import PackedRows, Schema
from repro.obs.explain import ExplainReport
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span, TraceContext, assign_span_ids
from repro.shard.coordinator import (DEFAULT_TIMEOUT, GatherTicket,
                                     ShardWorkerPool, merge_packed_runs)
from repro.shard.partition import ShardPartition, partition_document
from repro.storage.disk import FileDisk
from repro.target import QueryTarget

__all__ = ["ShardedDatabase"]


class ShardedDatabase(QueryTarget):
    """N durable shards behind the one query-target surface."""

    def __init__(self, document: XmlDocument, shards: int = 2,
                 base_dir: "str | Path | None" = None,
                 cost_factors: CostFactors | None = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 service_options: dict | None = None) -> None:
        if shards < 1:
            raise ShardError(f"shard count must be >= 1, got {shards}")
        super().__init__(cost_factors, service_options)
        self.shards = shards
        self.name = f"{document.name}-shards{shards}"
        self._timeout = timeout
        self._owns_dir = base_dir is None
        self._base_dir = (Path(tempfile.mkdtemp(prefix="repro-shards-"))
                          if base_dir is None else Path(base_dir))
        self._generation = 0
        self._shard_totals = [{"queries": 0, "rows": 0, "seconds": 0.0}
                              for _ in range(shards)]
        self._totals_mutex = threading.Lock()
        #: runs whose payloads landed, not yet in the totals
        self._unbooked: "deque[list[dict]]" = deque()
        self._closed = False
        self.document = document
        self.partition: ShardPartition
        self.workers: ShardWorkerPool
        self._load(document)

    # -- construction / lifecycle -----------------------------------------

    def _load(self, document: XmlDocument) -> None:
        """Partition, persist shard directories, start the workers,
        then publish the whole document's statistics as the planning
        inputs (one epoch for the fleet, as on a single node)."""
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
        estimator = self._load_statistics(document)
        self.workers = ShardWorkerPool(paths, timeout=self._timeout)
        self._publish_planning_inputs(estimator)

    def _generation_dir(self, generation: int) -> Path:
        return self._base_dir / f"gen{generation:03d}"

    def reload(self, document: XmlDocument) -> None:
        """Replace the corpus: re-partition, re-persist, restart workers.

        The new statistics are published (:meth:`_load`), so
        :attr:`statistics_epoch` moves and no plan cached against the
        old statistics can ever serve the new data.
        """
        self._require_open()
        previous_generation = self._generation
        self.workers.close()
        self._load(document)
        shutil.rmtree(self._generation_dir(previous_generation),
                      ignore_errors=True)

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

    # -- execution --------------------------------------------------------

    def _book(self, metrics: ExecutionMetrics,
              payloads: list[dict]) -> None:
        """Sum the shards' counters into *metrics* and queue the run's
        per-shard totals — once per run, when its payloads land (a
        stream cut short books its partial ones).  Only the pool's I/O
        thread calls this, and it takes no lock: every reader of the
        totals folds the queue in first (:meth:`_booked`)."""
        for payload in payloads:
            for name, value in payload["counters"].items():
                setattr(metrics, name, getattr(metrics, name) + value)
            metrics.page_reads += payload["page_reads"]
            metrics.buffer_hits += payload["buffer_hits"]
            metrics.buffer_misses += payload["buffer_misses"]
        self._unbooked.append(payloads)

    def _booked(self) -> list[dict]:
        """A copy of the per-shard totals, the queued runs folded in."""
        with self._totals_mutex:
            while self._unbooked:
                for payload in self._unbooked.popleft():
                    totals = self._shard_totals[payload["shard_id"]]
                    totals["queries"] += 1
                    totals["rows"] += payload["row_count"]
                    totals["seconds"] += payload["wall_seconds"]
            return [dict(entry) for entry in self._shard_totals]

    def _refuse_root_twig(self, pattern: QueryPattern) -> None:
        """Raise for a pattern the fleet would answer wrongly: its
        root can bind the replicated document root and branches there,
        so a match may span shards (the module docstring has why)."""
        root = pattern.node(pattern.root)
        branches = len(pattern.children(pattern.root))
        owners = sum(not assignment.is_empty
                     for assignment in self.partition.assignments)
        if (branches >= 2 and owners >= 2
                and root.matches(self.document.root)):
            raise UnshardablePatternError(
                f"pattern root {root.label()!r} can bind the document "
                f"root, which every shard replicates, and has "
                f"{branches} branches: matches spanning shards would "
                f"be lost; run it on a single node")

    def stream_execute(self, plan: PhysicalPlan, pattern: QueryPattern,
                       engine: str = "block",
                       cancel: "Callable[[], bool] | None" = None,
                       spans: bool = False,
                       trace_context: TraceContext | None = None,
                       algorithm: str = "") -> StreamingExecution:
        """Stream *plan*'s rows off every shard, merged (:meth:`execute`
        is this, drained at once).

        The plan — chosen once against the whole document's
        statistics — is
        fanned out verbatim: shards share the global label space, so
        it is valid everywhere and per-shard optimization would only
        diverge the fleet.  Rows come back exactly as a single node
        returns them for *plan*, in the same order (the module
        docstring has the two contract differences from a single node,
        the refusal of a twig branching at the document root among
        them).  Nothing is scattered before the first pull
        (:class:`_FleetRun`), whose size is the head each worker sends
        ahead of its rest: a stream reader's first block leaves as
        soon as every shard has sent its head — the latency
        :meth:`time_to_first` reports — and the rest follows once
        every shard has finished; a buffered read
        (``blocks(first=None)``, what :meth:`execute` does) asks for
        heads of the whole runs, merged into one packed block, and an
        empty rest.  No row is cut from a packed run, and no region
        looked up, before a reader asks.
        *cancel* is consulted after each block of rows is pulled; a
        stream cancelled or closed before its end tells the workers to
        stop at their next block.

        A traced run is one distributed trace: a :class:`TraceContext`
        (fresh, or the caller's *trace_context*) rides with the plan to
        every worker, and each worker ships its span subtree back
        serialized.  The finish hook settles the run's replies, sets
        its wall time, stitches the subtrees into the single trace and
        then runs the shared finish step
        (:meth:`~repro.target.QueryTarget._finish_run`), which retains
        the trace and, with a query log attached, appends a record of
        a run read to its end, as on a single node.
        The stitched tree's cost-counter shares sum *exactly* to the
        merged ``ExecutionMetrics`` — counters cross the pipe as ints,
        never re-measured.
        """
        self._require_open()
        validate_engine(engine)  # before the plan leaves the process
        self._refuse_root_twig(pattern)
        trace = self._trace_for(spans, trace_context)
        epoch = self.statistics_epoch
        started = time.perf_counter()
        schema = Schema(plan.output_nodes())
        metrics = ExecutionMetrics(factors=self.cost_factors)
        run = _FleetRun(self.workers, partial(self._book, metrics), plan,
                        pattern, engine, trace, schema)

        def finish(stream: StreamingExecution) -> None:
            payloads = run.settle(cancel=not stream.exhausted)
            metrics.wall_seconds = stream.total_seconds
            if trace is not None and payloads is not None:
                stream.span = self._stitch_trace(
                    trace, plan, payloads, run.phases, metrics,
                    stream.produced, run.merge_seconds)
            self._finish_run(stream, pattern, plan, algorithm, epoch)

        return StreamingExecution(
            schema, metrics, run, engine=engine,
            regions=region_view(self.document, len(schema)),
            cancel=cancel, started=started, on_finish=finish)

    def _stitch_trace(self, trace: TraceContext, plan: PhysicalPlan,
                      payloads: list[dict], phases: dict[str, float],
                      metrics: ExecutionMetrics, merged_rows: int,
                      merge_seconds: float) -> Span:
        """Assemble one distributed trace from the shard payloads.

        Structure: ``ShardScatterGather`` → [``scatter``, ``gather`` →
        one ``shard[i]`` wrapper per worker → that worker's rebuilt
        subtree, ``merge``].  The root and every wrapper carry the
        *plan*'s estimates — the merged result against the whole
        estimate, and each shard's rows against it too, which is where
        partition skew shows — so an explain report renders the tree
        as it is.  Coordinator spans are stamped under the
        ``c`` prefix *before* the worker subtrees (already stamped
        ``s<shard>-…`` worker-side) are attached, then each subtree
        root is re-parented under its wrapper — so span ids are unique
        across the whole trace and parentage is well-formed without
        ever re-stamping worker spans.  Coordinator spans carry no
        metrics, so the trace's counter shares are exactly the worker
        shares, which sum to the merged totals by construction.
        *phases* are the scatter/gather seconds of the ticket these
        very payloads came through.  The wrappers are the run's one
        per-shard record: a ``Shard`` wrapper's seconds are its
        worker's execution alone (wall clock, which inflates when
        workers outnumber cores); the wait for the worker's head, the
        run's pack time, its size and the worker's CPU time for the
        whole answer, which the worker clocks separately, ride in the
        wrapper's detail.
        """
        estimates = {"estimated_cardinality": plan.estimated_cardinality,
                     "estimated_cost": plan.estimated_cost}
        root = Span("ShardScatterGather",
                    detail=f"ShardScatterGather[{self.shards}]",
                    **estimates)
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
                       f"head {payload['head_seconds'] * 1e3:.2f} ms "
                       f"pack {payload['pack_seconds'] * 1e3:.2f} ms "
                       f"cpu {payload['cpu_seconds'] * 1e3:.2f} ms "
                       f"{payload['reply_bytes']} B", **estimates)
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

    def _explain_extras(self, report: ExplainReport,
                        pattern: QueryPattern) -> None:
        """Every report carries the statistics' *provenance* — which
        shard owns which share of each pattern tag's nodes — so a
        skewed estimate can be traced to the shard that supplied the
        mass behind it."""
        report.shards = {
            "count": self.shards,
            "statistics_provenance": self.partition.statistics_provenance(
                tags=[node.tag for node in pattern.nodes]),
        }

    # -- serving & observability ------------------------------------------

    def stats(self) -> dict[str, object]:
        """Service snapshot plus the shard fleet's own statistics."""
        snapshot = super().stats()
        snapshot["shards"] = {
            "count": self.shards,
            "nodes": [assignment.node_count
                      for assignment in self.partition.assignments],
            "label_ranges": [[assignment.label_lo, assignment.label_hi]
                             for assignment in
                             self.partition.assignments],
            "alive": self.workers.alive(),
            "totals": self._booked(),
        }
        return snapshot

    def collect_gauges(self, registry: MetricsRegistry) -> None:
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
        for assignment, worker_alive, entry in zip(
                self.partition.assignments, self.workers.alive(),
                self._booked()):
            shard = str(assignment.shard_id)
            nodes.set(assignment.node_count, shard=shard)
            queries.set(entry["queries"], shard=shard)
            rows.set(entry["rows"], shard=shard)
            seconds.set(entry["seconds"], shard=shard)
            alive_gauge.set(1 if worker_alive else 0, shard=shard)


class _FleetRun:
    """The row source of one fleet stream.

    Nothing is scattered before the first pull, whose *first* sizes
    the head every worker sends ahead of its rest.  The first block is
    the first *first* rows — with ``None`` all of them, kept packed
    (:class:`PackedRows`), which is what :meth:`ShardedDatabase.execute`
    reads — of a stable k-way merge of the heads on the plan's
    ``ordered_by`` column, ties in shard order and adjacent duplicates
    collapsed: the prefix the merge of the whole runs starts with, as
    in both of its modes a merged prefix of length k draws only on
    each run's first k rows.  When some shard's rest is non-empty,
    each head grows by its rest once every shard has finished and the
    runs are merged again, that merge's prefix checked against the
    rows already handed out; what is left is sliced into blocks.  The
    payloads are booked when they land, on the pool's I/O thread,
    whether or not anyone reads them.
    """

    def __init__(self, pool: ShardWorkerPool,
                 book: Callable[[list[dict]], None],
                 plan: PhysicalPlan, pattern: QueryPattern, engine: str,
                 trace: TraceContext | None, schema: Schema) -> None:
        self._pool = pool  # the fleet's pool now: a reload closes it
        self._book = book
        self._request = (plan, pattern, engine,
                         trace.to_dict() if trace is not None else None)
        self._schema = schema
        self._width = len(schema)
        self._key = schema.position(plan.ordered_by)
        self._ticket: GatherTicket | None = None
        #: this run's scatter and gather seconds (none before a pull)
        self.phases = {"scatter": 0.0, "gather": 0.0}
        #: the coordinator's own seconds on the runs: both merges and
        #: the head's cut
        self.merge_seconds = 0.0

    def blocks(self, first: int | None) -> Iterator[PackedRows]:
        width, key = self._width, self._key
        self._ticket = ticket = self._pool.scatter(
            *self._request, first=first, on_payloads=self._book)
        self.phases = ticket.phases
        runs = ticket.heads()
        started = time.perf_counter()
        rows = PackedRows(merge_packed_runs(runs, width, key), width)
        head = rows if first is None else rows[:first]
        self.merge_seconds = time.perf_counter() - started
        if head:
            yield head
        payloads = ticket.payloads()
        for payload in payloads:
            if payload["node_ids"] != self._schema.node_ids:
                raise ShardError(
                    f"shard {payload['shard_id']} disagrees on the "
                    f"output schema: {payload['node_ids']} vs the "
                    f"plan's {self._schema.node_ids}")
        if any(payload["rows"] for payload in payloads):
            started = time.perf_counter()
            for run, payload in zip(runs, payloads):
                run.extend(payload.pop("rows"))  # each rest freed once copied
            rows = PackedRows(merge_packed_runs(runs, width, key), width)
            if rows[:len(head)] != head:
                raise ShardError(
                    "the merged runs do not start with the rows already "
                    "streamed from the shards' heads")
            self.merge_seconds += time.perf_counter() - started
        del runs  # a reader of the rest holds the merged rows alone
        for start in range(len(head), len(rows),
                           engine_blocks.BLOCK_ROWS):
            yield rows[start:start + engine_blocks.BLOCK_ROWS]

    def settle(self, cancel: bool) -> list[dict] | None:
        """The finish hook's half: the run's payloads (see
        :meth:`GatherTicket.settle`)."""
        if self._ticket is None:
            return []  # closed before its first pull: nothing ran
        return self._ticket.settle(cancel)
