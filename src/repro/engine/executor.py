"""Plan execution: physical plan tree -> operator tree -> results.

The :class:`Executor` walks a :class:`~repro.core.plans.PhysicalPlan`,
instantiates the matching operators against an
:class:`~repro.engine.context.EngineContext` and hands back a
:class:`StreamingExecution`; drained at once it is an
:class:`ExecutionResult` bundling the rows, the output schema, the
work counters, and wall-clock time.

Rows leave every engine and every back end as
:class:`~repro.engine.tuples.PackedRows` — a block's or a result's
labels in one array — wherever they are counted, compared or shipped;
``Region`` rows are a view a caller asks for — ``result.tuples``,
``bindings()``, iterating a stream — built a block at a time by the
one resolver the back end hands the stream (:data:`RegionView`;
:func:`region_view` is a single node's).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import PlanError, QueryCancelled
from repro.core.pattern import QueryPattern
from repro.core.plans import (IndexScanPlan, JoinAlgorithm, PhysicalPlan,
                              SortPlan, StructuralJoinPlan)
from repro.document.node import Region
from repro.engine import blocks as engine_blocks
from repro.engine.blocks import (BlockIndexScan, BlockNestedLoopJoin,
                                 BlockOperator, BlockSort,
                                 BlockStackTreeAncJoin,
                                 BlockStackTreeDescJoin, node_postings)
from repro.engine.context import EngineContext
from repro.engine.metrics import ExecutionMetrics
from repro.engine.nestedloop import NestedLoopJoin
from repro.engine.operators import Operator
from repro.engine.scan import IndexScan
from repro.engine.sort import SortOperator
from repro.engine.stackjoin import StackTreeAncJoin, StackTreeDescJoin
from repro.engine.tuples import LabelRow, MatchTuple, PackedRows, Schema
from repro.obs.spans import Span
from repro.storage.tagindex import TagIndex

#: packed rows -> the same rows as ``Region`` tuples; a back end
#: supplies one per run and it is called only for a caller that asks
#: for regions.
RegionView = Callable[[PackedRows], list[MatchTuple]]

#: the two execution modes; block is the default of every run.
ENGINE_NAMES = ("block", "tuple")

#: per engine: the scan, the sort and the join operator per algorithm.
_OPERATORS = {
    "block": (BlockIndexScan, BlockSort, {
        JoinAlgorithm.STACK_TREE_ANC: BlockStackTreeAncJoin,
        JoinAlgorithm.STACK_TREE_DESC: BlockStackTreeDescJoin,
        JoinAlgorithm.NESTED_LOOP: BlockNestedLoopJoin}),
    "tuple": (IndexScan, SortOperator, {
        JoinAlgorithm.STACK_TREE_ANC: StackTreeAncJoin,
        JoinAlgorithm.STACK_TREE_DESC: StackTreeDescJoin,
        JoinAlgorithm.NESTED_LOOP: NestedLoopJoin}),
}


def _label_rows(rows: Iterator[MatchTuple]) -> Iterator[LabelRow]:
    """The reference iterators' region tuples reduced to label rows;
    closing it closes the pipeline underneath."""
    try:
        yield from map(tuple, map(map, repeat(attrgetter("start")),
                                  rows))
    finally:
        rows.close()


def _packed_blocks(rows: Iterator[LabelRow], width: int,
                   first: int | None) -> Iterator[PackedRows]:
    """A source without blocks of its own (the tuple pipeline) cut to
    the block engine's sizes — *first* rows (``None``: all of them),
    then ``BLOCK_ROWS`` at a time, pulling no further ahead — and
    packed."""
    size = first or None
    while block := list(islice(rows, size)):
        yield PackedRows.of_tuples(block, width)
        size = engine_blocks.BLOCK_ROWS


def validate_engine(engine: str) -> None:
    if engine not in ENGINE_NAMES:
        raise PlanError(f"unknown engine {engine!r}; expected one of "
                        f"{ENGINE_NAMES}")


def _operator_children(operator) -> tuple:
    """Input operators of an (iterator or block) operator, in the
    same order the corresponding plan node lists its children."""
    if hasattr(operator, "child"):
        return (operator.child,)
    if hasattr(operator, "ancestor_input"):
        return (operator.ancestor_input, operator.descendant_input)
    return ()


def region_view(index: TagIndex, pattern: QueryPattern,
                schema: Schema) -> RegionView:
    """A single node's :data:`RegionView` for rows of *schema*: each
    column is a strided slice of the packed labels, resolved in the
    packed postings of its pattern node — the run's own scans'
    blocks, fetched from *index* on first use, no whole-corpus table —
    with one dict read and one list read per label, all driven by
    ``map``.  The ``Region`` objects are the posting blocks' own
    cached ones."""
    nodes = [pattern.node(node_id) for node_id in schema.node_ids]
    width = len(nodes)

    def view(rows: PackedRows) -> list[MatchTuple]:
        labels = rows.labels
        columns = [node_postings(index, node) for node in nodes]
        return list(zip(*(
            map(column.regions.__getitem__,
                map(column.positions.__getitem__,
                    labels[position::width]))
            for position, column in enumerate(columns))))

    return view


@dataclass
class ExecutionResult:
    """Everything one plan execution produced.

    ``rows`` are the rows the engine produced, in its order, packed
    (:class:`~repro.engine.tuples.PackedRows`: a single node's stay
    row ints until first read, so ``len`` reads nothing); ``tuples``
    and :meth:`bindings` are their ``Region`` view, built on first use
    through ``regions``, the back end's resolver, which is released
    then: a kept result does not pin its back end (a pre-commit tag
    index, a fleet's region table) once it has its view.  ``span`` is the
    root of the per-operator span tree when the run was traced
    (``Executor.execute(..., spans=True)``), else ``None``.  The span
    tree mirrors the plan tree node for node.
    """

    rows: PackedRows
    schema: Schema
    metrics: ExecutionMetrics
    regions: RegionView | None
    span: Span | None = None

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def tuples(self) -> list[MatchTuple]:
        """The rows as ``Region`` tuples (built once, on first use)."""
        assert self.regions is not None
        tuples = self.regions(self.rows)
        self.regions = None
        return tuples

    def bindings(self) -> list[dict[int, Region]]:
        """Results as binding dicts (pattern node id -> region)."""
        return [dict(zip(self.schema.node_ids, match))
                for match in self.tuples]

    def canonical(self) -> set[LabelRow]:
        """Order-independent identity set (for result comparison)."""
        return set(map(self.schema.canonical_key, self.rows))


@dataclass
class FirstResultTiming:
    """Latency profile of a streaming execution.

    The paper motivates FP plans by their ability to "produce the
    initial result tuples quickly ... desirable in many applications,
    such as online querying" (Sec. 3.4).  ``first_seconds`` is the
    time until the requested number of results has been produced;
    ``total_seconds`` the time to drain the plan completely.
    """

    first_seconds: float
    total_seconds: float
    first_count: int
    total_count: int


class StreamingExecution:
    """One plan execution, read incrementally or drained at once.

    :meth:`blocks` is the one pull loop: it hands out the run's rows in
    bounded blocks of :class:`~repro.engine.tuples.PackedRows` — the
    first a single row, so the first result never waits for a block to
    fill, every later one up to ``BLOCK_ROWS`` — as the block engine's
    root operator produces them (a tuple pipeline is pulled and
    packed, and a fleet's packed result sliced, a block at a time).
    Iterating the handle reads the same blocks row by row as
    ``Region`` tuples, each block put through *regions*, the back
    end's :data:`RegionView`; nothing else on a stream builds a
    ``Region``.  The handle
    records :attr:`total_seconds` and :attr:`produced`, the rows handed
    out so far, and consults the optional *cancel* predicate after each
    block is pulled: a deadline or disconnect stops the operators
    mid-stream; cancellation surfaces as :class:`QueryCancelled`.
    Cancelled, abandoned early or closed (:meth:`close`), the pipeline
    is closed and the metrics finalized, so partial reads never leak
    open operator state.  :attr:`exhausted` tells the three endings
    apart: it is true only for a stream read to the end of its source,
    so only then do the counters describe the whole plan.
    :attr:`engine` names the engine that ran.
    """

    def __init__(self, schema: Schema, metrics: ExecutionMetrics,
                 source: Iterable[LabelRow], *, engine: str,
                 regions: RegionView,
                 cancel: Callable[[], bool] | None = None,
                 span: Span | None = None,
                 started: float | None = None,
                 on_finish: Callable[["StreamingExecution"], None]
                 | None = None) -> None:
        self.schema = schema
        self.metrics = metrics
        self.engine = engine
        self.span = span
        self.produced = 0
        self.total_seconds = 0.0
        self.cancelled = False
        self.exhausted = False
        self.finished = False
        self._source = source
        self._regions = regions
        self._cancel = cancel
        self._started = started
        self._on_finish = on_finish
        self._blocks: Iterator[PackedRows] | None = None
        self._rows: Iterator[MatchTuple] | None = None
        #: the block a by-row reader is inside, and :attr:`produced`
        #: as it will stand once that block is handed out entirely
        self._open: tuple[Sequence[LabelRow], int] = ((), 0)

    def blocks(self, first: int | None = 1) -> Iterator[PackedRows]:
        """The rows not yet read, in blocks: *first* rows (``None``:
        all of them, as the one block the source holds; the call that
        starts the stream decides), then up to ``BLOCK_ROWS`` at a
        time, each :class:`PackedRows`.  What a by-row reader left of
        the block it is inside comes first."""
        blocks = self._source_blocks(first)
        left = self._take_open()
        return chain((left,), blocks) if left else blocks

    def _source_blocks(self, first: int | None
                       ) -> Iterator[PackedRows]:
        """The one pull loop every reader shares."""
        if self._blocks is None:
            self._blocks = self._pull(first)
        return self._blocks

    def __iter__(self) -> Iterator[MatchTuple]:
        """The rows not yet read, one at a time, as ``Region`` tuples."""
        if self._rows is None:
            self._rows = self._by_row()
        return self._rows

    def elapsed(self) -> float:
        """Seconds since the stream started (0.0 before the first pull)."""
        if self._started is None:
            return 0.0
        if self.finished:
            return self.total_seconds
        return time.perf_counter() - self._started

    def _check_cancel(self) -> None:
        if self._cancel is not None and self._cancel():
            self.cancelled = True
            raise QueryCancelled(
                f"query cancelled after {self.produced} rows")

    def _pull(self, first: int | None) -> Iterator[PackedRows]:
        if self.finished:  # closed before its first pull: it stays so
            return
        if self._started is None:
            self._started = time.perf_counter()
        try:
            own = getattr(self._source, "blocks", None)
            for block in (own(first) if own is not None else
                          _packed_blocks(iter(self._source),
                                         len(self.schema), first)):
                self._check_cancel()
                self.produced += len(block)
                yield block
            # cancel may have raced the final block; report it so
            # callers see a consistent cancelled outcome either way
            self._check_cancel()
            self.exhausted = True
        finally:
            self._finish()

    def _by_row(self) -> Iterator[MatchTuple]:
        for block in self._source_blocks(1):
            self._open = block, self.produced
            self.produced -= len(block)  # handed out row by row
            for match in self._regions(block):
                self.produced += 1
                yield match

    def _take_open(self) -> Sequence[LabelRow]:
        """What a by-row reader has left of the block it is inside
        (packed, or ``()``); that reader reads no further (iterating
        again starts a new one at the next unread block)."""
        if self._rows is not None:
            self._rows.close()
            self._rows = None
        block, end = self._open
        left = block[len(block) - (end - self.produced):]
        self.produced += len(left)
        self._open = (), 0
        return left

    def fetchall(self) -> PackedRows:
        """Every row not yet read, as one :class:`PackedRows` (empty
        once drained).

        The buffered execute: an unread stream nobody can cancel is
        asked for one unbounded block — the block engine's whole
        output, its row ints not yet flattened; an iterator source,
        packed once; a fleet's packed result as it stands — so there
        is no per-row Python work.
        """
        width = len(self.schema)
        if self._blocks is None and self._cancel is None:
            whole = list(self.blocks(first=None))
            return whole[0] if whole else PackedRows.join((), width)
        return PackedRows.join(
            chain((self._take_open(),), self._source_blocks(1)), width)

    def result(self) -> ExecutionResult:
        """The stream drained into an :class:`ExecutionResult`."""
        rows = self.fetchall()  # finishing may set (stitch) the span
        return ExecutionResult(rows, self.schema, self.metrics,
                               self._regions, self.span)

    def close(self) -> None:
        """Stop early: close the pipeline and finalize the metrics."""
        for reader in (self._rows, self._blocks):
            if reader is not None:
                reader.close()
        # a generator closed before its first pull never ran its
        # ``finally``, so finishing cannot be left to it
        self._finish()

    def drain(self) -> int:
        """Consume all remaining rows; returns the final row count."""
        self._take_open()
        for _ in self._source_blocks(1):
            pass
        return self.produced

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        if self._started is not None:
            self.total_seconds = time.perf_counter() - self._started
        close = getattr(self._source, "close", None)
        if close is not None:
            close()
        self._source = ()  # a finished stream has no rows left,
        self._open = (), 0  # not even in a by-row reader's block
        if self._on_finish is not None:
            self._on_finish(self)


def measure_time_to_first(stream: StreamingExecution,
                          results: int = 1) -> FirstResultTiming:
    """Drain *stream* and report when its first *results* rows had
    arrived: they are asked for as its first block."""
    blocks = stream.blocks(first=results)
    first_count = len(next(blocks, ()))
    # fewer rows than asked for: all there are, at the run's end
    first_seconds = stream.elapsed()
    stream.drain()
    return FirstResultTiming(first_seconds, stream.total_seconds,
                             first_count, stream.produced)


class Executor:
    """Builds and drives operator trees for one engine context.

    A run's *engine* keyword selects the execution mode: ``"block"``
    (the default) runs the columnar block-at-a-time operators of
    :mod:`repro.engine.blocks`; ``"tuple"`` runs the original
    Volcano-style iterators, the reference the block engine is checked
    against.  Both modes produce identical row sequences and
    identical cost-model counters — only wall-clock and the I/O
    diagnostics differ.  :meth:`stream` is the one place that knows
    which ran: it reduces the iterators' ``Region`` tuples to label
    rows, so nothing above it does.
    """

    def __init__(self, context: EngineContext,
                 pattern: QueryPattern) -> None:
        self.context = context
        self.pattern = pattern

    def build(self, plan: PhysicalPlan,
              context: EngineContext | None = None,
              engine: str = "block") -> Operator | BlockOperator:
        """Translate a plan subtree into *engine*'s operator subtree.

        Operators capture *context*'s metrics object; executions pass a
        run-scoped context (:meth:`EngineContext.for_run`) so that
        concurrent runs never share counters.
        """
        context = context or self.context
        scan, sort, joins = _OPERATORS[engine]
        if isinstance(plan, IndexScanPlan):
            return scan(self.pattern.node(plan.node_id), context)
        if isinstance(plan, SortPlan):
            return sort(self.build(plan.child, context, engine),
                        plan.by_node)
        if isinstance(plan, StructuralJoinPlan):
            args = (self.build(plan.ancestor_plan, context, engine),
                    self.build(plan.descendant_plan, context, engine),
                    plan.ancestor_node, plan.descendant_node, plan.axis)
            if engine == "block":
                # a block join gets the run's context, as a scan does
                args += (context,)
            return joins[plan.algorithm](*args)
        raise PlanError(f"unknown plan node type {type(plan).__name__}")

    def instrument(self, root, plan: PhysicalPlan,
                   factors=None) -> Span:
        """Attach a span (and private metrics) to every operator.

        Each operator in *root*'s tree — iterator or block — gets a
        span named after its class and labelled by its plan node
        (``detail``, engine-independent), carrying the optimizer's
        estimates, and its own
        :class:`~repro.engine.metrics.ExecutionMetrics`, so every
        counter increment is attributed to exactly one operator; the
        caller merges the span metrics back into the run totals after
        the run, which keeps per-operator shares summing exactly to
        the run's counters.  Must be called after ``build`` and before
        the run.
        """
        factors = factors or self.context.factors
        metrics = ExecutionMetrics(factors=factors)
        root.metrics = metrics
        span = Span(type(root).__name__,
                    detail=plan.label(self.pattern),
                    estimated_cardinality=plan.estimated_cardinality,
                    estimated_cost=plan.estimated_cost,
                    metrics=metrics)
        root._span = span
        # one ``build`` made the tree from the plan, so it mirrors it
        span.children = [self.instrument(child, child_plan, factors)
                         for child, child_plan in zip(
                             _operator_children(root), plan.children(),
                             strict=True)]
        return span

    def execute(self, plan: PhysicalPlan,
                engine: str = "block",
                spans: bool = False) -> ExecutionResult:
        """Run *plan* to completion: :meth:`stream`, drained at once.

        *spans* enables per-operator tracing for this run; the
        resulting span tree is returned on :attr:`ExecutionResult.span`
        and its per-operator counter shares sum exactly to the result's
        metrics.
        """
        return self.stream(plan, engine=engine, spans=spans).result()

    def stream(self, plan: PhysicalPlan, *,
               engine: str = "block",
               cancel: Callable[[], bool] | None = None,
               spans: bool = False,
               on_finish: Callable[[StreamingExecution], None]
               | None = None) -> StreamingExecution:
        """Run *plan* with run-private metrics — the one run path.

        The shared context is never mutated: each execution builds its
        operator tree against a run-scoped context, so concurrent
        executions over one :class:`EngineContext` are safe.  Page and
        buffer counter deltas come from the shared pool, so under
        concurrency they attribute I/O approximately (aggregate totals
        stay exact); the simulated-cost counters are always private.

        *engine* picks the row source, the block engine's root
        operator or the tuple engine's pipeline;
        *cancel* is the stream's (see :class:`StreamingExecution`).
        Page/buffer I/O deltas and span finalization happen when the
        stream finishes, however it ends; then *on_finish* runs.
        """
        validate_engine(engine)
        run = self.context.for_run()
        metrics = run.metrics
        pool = run.tag_index.pool
        io_before = pool.disk.stats.snapshot()
        hits_before = pool.stats.hits
        misses_before = pool.stats.misses
        root = self.build(plan, run, engine)
        span_root = (self.instrument(root, plan, run.factors)
                     if spans else None)

        def finalize(stream: StreamingExecution) -> None:
            metrics.wall_seconds = stream.total_seconds
            if span_root is not None:
                # traced operators wrote to private counters (their
                # seconds and output_rows were measured live); fold
                # them into the run totals, in the order the operators
                # finish, so traced and untraced executions report
                # identical ExecutionMetrics
                for span in span_root.walk_post_order():
                    metrics.merge(span.metrics)
            metrics.page_reads = pool.disk.stats.reads - io_before.reads
            metrics.page_writes = (pool.disk.stats.writes
                                   - io_before.writes)
            metrics.buffer_hits = pool.stats.hits - hits_before
            metrics.buffer_misses = pool.stats.misses - misses_before
            if on_finish is not None:
                on_finish(stream)

        # a block operator is its own source (it has ``blocks``); the
        # iterators' region tuples are reduced to label rows here
        source = root if engine == "block" else _label_rows(root.run())
        return StreamingExecution(
            root.schema, metrics, source, engine=engine,
            regions=region_view(run.tag_index, self.pattern,
                                root.schema),
            cancel=cancel, span=span_root, on_finish=finalize)

    def time_to_first(self, plan: PhysicalPlan,
                      results: int = 1) -> FirstResultTiming:
        """Measure result latency: blocking operators delay the first
        tuple, pipelined plans deliver it almost immediately.  Runs the
        tuple engine: Sec. 3.4's experiment is about iterator
        pipelining.
        """
        return measure_time_to_first(
            self.stream(plan, engine="tuple"), results=results)
