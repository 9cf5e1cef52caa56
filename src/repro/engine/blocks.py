"""Block-at-a-time execution engine.

Columnar re-implementation of the iterator operators: every operator
hands its parent its entire output as one :class:`TupleBlock`, built
with C-speed primitives — ``bisect`` probes over typed ``array``
columns, list slices, comprehension cross-products — instead of a
Python generator frame per tuple.  Only the *root* operator is read
incrementally (:meth:`BlockOperator.blocks`): its first row, then
blocks of up to ``BLOCK_ROWS`` rows, leave before it has finished, so
a block is also the unit that moves from the engine to the wire.

A row is one Python int from the scan to the root: its start labels
packed ``LABEL_BITS`` apart, the first schema column highest
(:func:`~repro.engine.tuples.row_shift`), so int order is the labels'
tuple order.  A scan's rows are its packed start column as it is; a
join shifts its ancestor input past the descendant's columns once,
and then a row of its output is one ``add`` of two row ints; grouping
and sorting read one column with a shift-and-mask pass.  No operator
an optimizer picks touches a :class:`~repro.document.node.Region`
(the quadratic oracle join looks its two up in the document).  What
a join needs beyond the label (a group's end and level) it reads from
the scans' packed posting columns, which every :class:`TupleBlock`
carries per bound pattern node (:attr:`TupleBlock.columns`): scans
seed the map, joins union their inputs' maps, sorts pass it on.  A
node's parent label and a predicate's node come from the document, in
lists aligned with the same posting columns.  An int is no container,
so a big intermediate or result gives CPython's cyclic collector
nothing to count or walk.  The root hands its reader
:class:`~repro.engine.tuples.PackedRows`: each bounded block flattened
to one label array as it leaves, a whole unbounded output kept as its
int list until somebody reads it.

Two invariants tie this engine to the tuple engine in ``scan.py`` /
``stackjoin.py`` / ``sort.py`` / ``nestedloop.py``:

* **Result parity** — each block operator emits exactly the row
  sequence its iterator twin yields, reduced to labels, in the same
  order.

* **Metrics parity** — each block operator charges exactly the same
  :class:`~repro.engine.metrics.ExecutionMetrics` counters
  (``index_items``, ``stack_tuple_ops``, ``buffered_results``, the
  sort counters, ``output_tuples``, ``join_count``), so
  ``simulated_cost()`` — the currency the optimizer's cost model is
  validated in — is identical under either engine.  Only the
  page/buffer I/O diagnostics may differ: the block engine reads each
  posting page once per decode-cache epoch instead of once per scan.

The counters are consumption-driven in the tuple engine, which is why
its stack joins drain their ancestor input at end-of-stream (see
``stackjoin.py``): with total consumption, the full-list bulk charges
here are exactly equivalent, and skip-ahead can jump over non-joining
runs without touching any counter.

Skip-ahead — the optimization the paper inherits from its structural-
join reference — exploits that grouped columns are sorted by start and
that regions of one tree either nest or are disjoint; how each join
uses it is in :class:`BlockStackTreeDescJoin` and
:class:`BlockStackTreeAncJoin`.

Both Stack-Tree joins are two steps over the packed columns: find the
joining (ancestor group, descendant group) pairs as int lists, then
build their rows in one emission loop they share
(:meth:`_BlockJoinBase._emit`).  Every step is a C-level pass —
``bisect`` under ``map``, a dict probe per parent label, ``range``
windows, ``compress`` over the level test, ``int.__add__`` under
``map`` — so a join's cost is the paper's, linear in its inputs and
its output, with no interpreter loop per group.  The two joins find
the same pairs and differ only in their order and in which side's row
varies slowest.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import (add, and_, eq, ge, is_not, lshift, lt, mul, ne,
                      rshift, sub)
from typing import Iterable, Iterator, Sequence

from repro.errors import PlanError
from repro.core.pattern import Axis, PatternNode
from repro.engine.context import EngineContext
from repro.engine.metrics import ExecutionMetrics
from repro.engine.nestedloop import _related
from repro.engine.tuples import (LABEL_BITS, LABEL_MASK, PackedRows,
                                 Schema, flatten, row_shift)
from repro.storage.postings import RegionBlock


#: Most rows in one block handed from the root operator to its reader
#: (so also in one hand-off from a server's producer thread to its
#: event loop, and in one NDJSON chunk); the first block is one row.
#: Measured, not guessed: a closed loop of two keep-alive connections
#: streaming ``//employee//name`` over Pers 20000 (4771 rows) from a
#: server pinned to one CPU, five interleaved 2 s rounds per setting,
#: medians -- cap 16: 28 req/s, 64: 37.5, 256: 44, 1024: 41.5, 4096:
#: 42.5.  The curve is flat from 256 on, and a smaller block is a
#: tighter bound on memory and on cancel latency.  No ramp from 1 up
#: to the cap: with rows arriving at C speed it only adds hand-offs.
BLOCK_ROWS = 256


def _column_labels(rows: Sequence[int], width: int,
                   position: int) -> list[int]:
    """Column *position* of *width*-column row ints: one shift-and-mask
    pass, each step a ``map`` (the first column needs no mask, the
    last no shift)."""
    shift = row_shift(width, position)
    labels: Iterable[int] = rows
    if shift:
        labels = map(rshift, labels, repeat(shift))
    if position:
        labels = map(and_, labels, repeat(LABEL_MASK))
    return list(labels)


class ColumnGroups:
    """Grouped view of one bound column of a block.

    ``starts``/``ends``/``levels`` hold one entry per *group* — a run
    of adjacent rows binding the same region — and
    ``bounds[i]:bounds[i + 1]`` is group *i*'s row range (``bounds``
    therefore also gives cumulative row counts).
    """

    __slots__ = ("starts", "ends", "levels", "bounds")

    def __init__(self, starts: Sequence[int], ends: Sequence[int],
                 levels: Sequence[int], bounds: Sequence[int]) -> None:
        self.starts = starts
        self.ends = ends
        self.levels = levels
        self.bounds = bounds

    def __len__(self) -> int:
        return len(self.starts)


def _group_rows(rows: Sequence[int], width: int, position: int,
                label: str, column: RegionBlock) -> ColumnGroups:
    """Group a document-ordered list of *width*-column row ints by
    the column at *position*.

    The block-engine counterpart of
    :func:`repro.engine.operators.group_by_column` plus the order
    check of ``OrderCheckingIterator``: a decreasing start is a
    planner bug and raises, naming the first decreasing pair.  Every
    step is a C-level pass over the row list — the labels read by a
    shift-and-mask pass, the order checked and the group starts found
    by comparing the label list with itself shifted by one — so no
    Python frame runs per row; each *group's* end and level are read
    from *column*, the packed postings its labels came from.
    """
    keys = _column_labels(rows, width, position)
    decrease = next(compress(count(1), map(lt, islice(keys, 1, None),
                                           keys)), None)
    if decrease is not None:
        raise PlanError(
            f"{label} is not ordered by its declared column (saw "
            f"start {keys[decrease]} after {keys[decrease - 1]})")
    bounds = [0, *compress(range(1, len(keys)),
                           map(ne, keys, islice(keys, 1, None)))
              ] if keys else []
    starts = list(map(keys.__getitem__, bounds))
    bounds.append(len(keys))
    found = list(map(column.positions.__getitem__, starts))
    return ColumnGroups(starts,
                        list(map(column.ends.__getitem__, found)),
                        list(map(column.levels.__getitem__, found)),
                        bounds)


class TupleBlock:
    """One operator's entire output: schema, row ints, grouped views,
    and per bound pattern node the packed postings its labels came
    from (``columns`` — where a group's end and level are read).

    An unpredicated leaf scan's rows are the decode cache's packed
    start column itself (a one-column row int is its label); nothing
    writes to a block's rows, and what is handed to callers is copied
    from them, never them.
    """

    __slots__ = ("schema", "columns", "rows", "_groups")

    def __init__(self, schema: Schema, columns: dict[int, RegionBlock],
                 rows: Sequence[int]) -> None:
        self.schema = schema
        self.columns = columns
        self.rows = rows
        self._groups: dict[int, ColumnGroups] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def grouped(self, node_id: int,
                label: str = "input") -> ColumnGroups:
        """The grouped view of column *node_id* (cached per block)."""
        groups = self._groups.get(node_id)
        if groups is None:
            groups = _group_rows(self.rows, len(self.schema),
                                 self.schema.position(node_id), label,
                                 self.columns[node_id])
            self._groups[node_id] = groups
        return groups


class BlockOperator:
    """Base class of block operators (single-use, like ``Operator``)."""

    def __init__(self, schema: Schema, ordered_by: int,
                 metrics: ExecutionMetrics) -> None:
        if ordered_by not in schema:
            raise PlanError(
                f"operator ordered by {ordered_by}, which is not in its "
                f"schema {schema.node_ids}")
        self.schema = schema
        self.ordered_by = ordered_by
        self.metrics = metrics
        #: tracing hook (:class:`repro.obs.spans.Span`): attached by
        #: the executor for traced runs, ``None`` otherwise — one
        #: ``is None`` check per operator per execution, so untraced
        #: block execution is unchanged.
        self._span = None
        self._consumed = False

    def _claim(self) -> None:
        if self._consumed:
            raise PlanError("operator streams are single-use")
        self._consumed = True

    def block(self) -> TupleBlock:
        """Produce the full output block.  May be called once."""
        self._claim()
        started = time.perf_counter()
        block = self._produce()
        if self._span is not None:
            self._span.seconds += time.perf_counter() - started
            self._span.output_rows = len(block)
        return block

    def blocks(self, first: int | None = 1) -> Iterator[PackedRows]:
        """How the *root* operator is read: its output as
        :class:`PackedRows` — *first* rows, then up to ``BLOCK_ROWS``
        at a time, each flattened and handed out before the rest is
        produced; with ``first=None`` all at once, kept as row ints
        until read.  A traced root's span accumulates across
        resumptions."""
        self._claim()
        span = self._span
        width = len(self.schema)
        started = time.perf_counter()
        for rows in self._emit(first):
            if rows:
                rows = (PackedRows(flatten(rows, width), width) if first
                        else PackedRows.of_ints(rows, width))
            if span is not None:
                span.seconds += time.perf_counter() - started
                span.output_rows += len(rows)
            if rows:
                yield rows
            started = time.perf_counter()

    def _produce(self) -> TupleBlock:
        raise NotImplementedError

    def _emit(self, bound: int | None) -> Iterator[Sequence[int]]:
        """The output's row ints, *bound* rows (``None``: all), then
        ``BLOCK_ROWS`` at a time.  Scans and sorts cut up their block
        (read-only slices); a join's emission loop hands its output
        over as it goes."""
        rows = self._produce().rows
        if not bound:
            yield rows
            return
        start = 0
        while start < len(rows):
            yield rows[start:start + bound]
            start += bound
            bound = BLOCK_ROWS


class BlockIndexScan(BlockOperator):
    """Leaf: one pattern node's candidate set as a single block.

    Pulls the cached :class:`~repro.storage.postings.RegionBlock` from
    the tag index (decoded at most once per index epoch) and charges
    ``index_items`` for the whole candidate set — the same ``f_I * n``
    the (drained) tuple scan accumulates one posting at a time.
    """

    def __init__(self, pattern_node: PatternNode,
                 context: EngineContext) -> None:
        super().__init__(Schema((pattern_node.node_id,)),
                         pattern_node.node_id, context.metrics)
        self.pattern_node = pattern_node
        self.context = context

    def _produce(self) -> TupleBlock:
        index = self.context.tag_index
        postings = (index.scan_blocks_all() if self.pattern_node.is_wildcard
                    else index.scan_blocks(self.pattern_node.tag))
        self.metrics.index_items += len(postings)
        node_id = self.pattern_node.node_id
        columns = {node_id: postings}
        if not self.pattern_node.predicates:
            # a one-column row int is its label: the rows are the
            # packed start column, which the bisect probes run over
            block = TupleBlock(self.schema, columns, postings.starts)
            block._groups[node_id] = ColumnGroups(
                postings.starts, postings.ends, postings.levels,
                range(len(postings) + 1))
            return block
        # the document's nodes of the tag, aligned with the posting:
        # the predicate reads node i for posting i, no lookup per label
        nodes, _ = self.context.document.tag_column(postings.tag,
                                                    postings.starts)
        kept = list(map(self.pattern_node.matches, nodes))
        starts, ends, levels = (
            list(compress(column, kept))
            for column in (postings.starts, postings.ends,
                           postings.levels))
        block = TupleBlock(self.schema, columns, starts)
        block._groups[node_id] = ColumnGroups(
            starts, ends, levels, range(len(starts) + 1))
        return block


class BlockSort(BlockOperator):
    """Blocking sort by one bound node's document position."""

    def __init__(self, child: BlockOperator, by_node: int) -> None:
        super().__init__(child.schema, by_node, child.metrics)
        self.child = child
        self.by_node = by_node

    def _produce(self) -> TupleBlock:
        """A stable sort of the row indexes by the key column's labels
        (a stable sort of the row ints would order ties by the other
        columns, which the tuple engine's sort keeps as they came)."""
        child_block = self.child.block()
        rows = child_block.rows
        self.metrics.record_sort(len(rows))
        keys = _column_labels(rows, len(self.schema),
                              self.schema.position(self.by_node))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return TupleBlock(self.schema, child_block.columns,
                          list(map(rows.__getitem__, order)))


class _BlockJoinBase(BlockOperator):
    """Shared setup of the block join operators, and the Stack-Tree
    joins' one emission loop.

    A Stack-Tree join is two steps.  :meth:`_pairs` finds the joining
    (ancestor group, descendant group) pairs as two int lists, in the
    join's output order; :meth:`_emit` builds their rows slice by
    slice (:func:`_pair_rows`) and, given a *bound*, hands its ``out``
    list over as blocks (:meth:`_cut`) and ends with what is left;
    given none it yields once, the whole output — the block an inner
    operator, or a buffered run, asks for.  The two joins differ only
    in their pair order and in which side's row varies slowest
    (:attr:`ancestor_outer`).
    """

    #: Stack-Tree-Anc: ancestor row outer, and its output is what
    #: the tuple engine buffers; Stack-Tree-Desc: descendant outer
    ancestor_outer = False

    def __init__(self, ancestor_input: BlockOperator,
                 descendant_input: BlockOperator,
                 ancestor_node: int, descendant_node: int,
                 axis: Axis, context: EngineContext,
                 ordered_by: int) -> None:
        schema = ancestor_input.schema.concat(descendant_input.schema)
        super().__init__(schema, ordered_by, ancestor_input.metrics)
        self.ancestor_input = ancestor_input
        self.descendant_input = descendant_input
        self.ancestor_node = ancestor_node
        self.descendant_node = descendant_node
        self.axis = axis
        #: the run's context, as a scan gets it: Stack-Tree-Desc reads
        #: its document's parent labels on the CHILD axis, the nested
        #: loop its regions
        self.context = context
        #: the inputs' column maps, united (set once they have run)
        self._columns: dict[int, RegionBlock] = {}

    def _produce(self) -> TupleBlock:
        (out,) = self._emit(None)
        return TupleBlock(self.schema, self._columns, out)

    def _cut(self, out: list[int], bound: int) -> Iterator[list[int]]:
        """Whole blocks off the front of *out* — *bound* rows, then
        ``BLOCK_ROWS`` at a time — charged to ``output_tuples``; the
        remainder stays in *out* for the next group."""
        start = 0
        while len(out) - start >= bound:
            yield out[start:start + bound]
            start += bound
            bound = BLOCK_ROWS
        del out[:start]
        self.metrics.output_tuples += start

    def _input_blocks(self) -> tuple[TupleBlock, TupleBlock]:
        """Run both inputs; their column maps, united, are this
        join's."""
        anc_block = self.ancestor_input.block()
        desc_block = self.descendant_input.block()
        self._columns = {**anc_block.columns, **desc_block.columns}
        return anc_block, desc_block

    def _shifted(self, anc_block: TupleBlock) -> list[int]:
        """The ancestor input's row ints shifted past the descendant's
        columns, once per join: an output row is then one ``add``."""
        shift = LABEL_BITS * len(self.descendant_input.schema)
        return list(map(lshift, anc_block.rows, repeat(shift)))

    def _charge_pushes(self, anc: ColumnGroups,
                       desc: ColumnGroups) -> None:
        """Bulk ``stack_tuple_ops`` charge.

        The tuple engine pushes exactly the ancestor groups whose
        start precedes the final descendant group's start, charging
        one op per tuple pushed; ``bounds`` gives that tuple total in
        one ``bisect`` step.
        """
        pushed = bisect_left(anc.starts, desc.starts[-1])
        self.metrics.stack_tuple_ops += anc.bounds[pushed]

    def _pairs(self, anc: ColumnGroups, desc: ColumnGroups
               ) -> tuple[list[int], list[int]]:
        """The joining pairs: ancestor groups and descendant groups,
        pair by pair in output order."""
        raise NotImplementedError

    def _windows(self, anc: ColumnGroups, desc: ColumnGroups
                 ) -> tuple[list[int], list[int]]:
        """Every joining pair, ancestor-major: the tuple engine's
        stack condition.  The descendant groups that start in
        ``(a.start, a.end]`` are one ``bisect`` window per ancestor
        group *a*, listed by ``range``.  Regions nest, so each of them
        is inside *a*: no end test is needed, and on the CHILD axis
        the level test filters them."""
        # bisect and index lists: an array boxes an int per probe
        starts = list(desc.starts)
        lows = list(map(bisect_right, repeat(starts), anc.starts))
        highs = list(map(bisect_right, repeat(starts), anc.ends))
        sizes = list(map(sub, highs, lows))
        partners = list(chain.from_iterable(map(repeat, range(len(anc)),
                                                sizes)))
        groups = list(chain.from_iterable(map(range, lows, highs)))
        if self.axis is Axis.DESCENDANT:
            return partners, groups
        parent_levels = list(map(sub, desc.levels, repeat(1)))
        kept = list(map(
            eq, chain.from_iterable(map(repeat, anc.levels, sizes)),
            map(parent_levels.__getitem__, groups)))
        return (list(compress(partners, kept)),
                list(compress(groups, kept)))

    def _emit(self, bound: int | None) -> Iterator[list[int]]:
        """Build the rows of :meth:`_pairs` a slice of pairs at a time.
        Given a *bound*, each slice is cut where the output passes
        what the next block needs: the group sizes give that count
        before any row is built, so the first block leaves before the
        rest is joined."""
        self.metrics.join_count += 1
        anc_block, desc_block = self._input_blocks()
        anc = anc_block.grouped(self.ancestor_node, "ancestor input")
        desc = desc_block.grouped(self.descendant_node,
                                  "descendant input")
        out: list[int] = []
        if len(anc) and len(desc):
            self._charge_pushes(anc, desc)
            partners, groups = self._pairs(anc, desc)
            anc_rows = self._shifted(anc_block)
            desc_rows = desc_block.rows
            anc_spans = _spans(anc, anc_rows)
            desc_spans = _spans(desc, desc_rows)
            total = len(groups)
            if anc_spans is None and desc_spans is None:
                cumulative: Sequence[int] = range(1, total + 1)
            else:
                cumulative = list(accumulate(map(
                    mul, _row_counts(anc_spans, partners),
                    _row_counts(desc_spans, groups))))
            done = 0
            while done < total:
                stop = total
                if bound:
                    needed = bound - len(out)
                    if done:
                        needed += cumulative[done - 1]
                    stop = min(bisect_left(cumulative, needed, done) + 1,
                               total)
                out.extend(_pair_rows(anc_rows, anc_spans,
                                      partners[done:stop], desc_rows,
                                      desc_spans, groups[done:stop],
                                      self.ancestor_outer))
                done = stop
                if bound and len(out) >= bound:
                    yield from self._cut(out, bound)
                    bound = BLOCK_ROWS
            if self.ancestor_outer and total:
                self.metrics.buffered_results += cumulative[-1]
        self.metrics.output_tuples += len(out)
        yield out


def _spans(groups: ColumnGroups, rows: Sequence[int]
           ) -> tuple[Sequence[int], Sequence[int]] | None:
    """Each group's first row and end row, read once per join, or
    ``None`` when every group is one row (group *i* is row *i*)."""
    if len(rows) == len(groups):
        return None
    return groups.bounds, groups.bounds[1:]


def _row_counts(spans: tuple[Sequence[int], Sequence[int]] | None,
                kept: list[int]) -> Iterator[int]:
    """The number of rows of each group in *kept*."""
    if spans is None:
        return repeat(1, len(kept))
    lows, highs = spans
    return map(sub, map(highs.__getitem__, kept),
               map(lows.__getitem__, kept))


def _pair_rows(anc_rows: Sequence[int],
               anc_spans: tuple[Sequence[int], Sequence[int]] | None,
               partners: list[int], desc_rows: Sequence[int],
               desc_spans: tuple[Sequence[int], Sequence[int]] | None,
               groups: list[int], ancestor_outer: bool
               ) -> Iterator[int]:
    """The rows of the pairs (*partners*[i], *groups*[i]) in emission
    order — per pair, the outer side's row varies slowest: the
    ancestor's if *ancestor_outer*, else the descendant's — as C-level
    maps: no Python frame per pair or per row.  A row is always the
    (shifted) ancestor row plus the descendant row."""
    outer_side = (anc_rows, anc_spans, partners)
    inner_side = (desc_rows, desc_spans, groups)
    if not ancestor_outer:
        outer_side, inner_side = inner_side, outer_side
    rows, spans, kept = inner_side
    if spans is None:
        inner = map(rows.__getitem__, kept)
    else:
        lows, highs = spans
        inner = map(rows.__getitem__,
                    map(slice, map(lows.__getitem__, kept),
                        map(highs.__getitem__, kept)))
    rows, spans, kept = outer_side
    if spans is None:
        outer = map(rows.__getitem__, kept)
    else:
        lows, highs = spans
        lows = list(map(lows.__getitem__, kept))
        highs = list(map(highs.__getitem__, kept))
        outer = chain.from_iterable(
            map(rows.__getitem__, map(slice, lows, highs)))
        # every row of an outer group meets the pair's inner group
        inner = chain.from_iterable(
            map(repeat, inner, map(sub, highs, lows)))
    grouped = inner_side[1] is not None
    if grouped:
        # each outer row meets every row of the inner group
        outer = map(repeat, outer)
    pairs = (outer, inner) if ancestor_outer else (inner, outer)
    if grouped:
        return chain.from_iterable(map(map, repeat(add), *pairs))
    return map(add, *pairs)


class BlockStackTreeDescJoin(_BlockJoinBase):
    """Structural join, output ordered by the descendant binding.

    Per descendant group, the tuple engine's live stack is exactly the
    chain of ancestor groups enclosing the descendant's start, and the
    group joins every entry of it that passes the axis test, outermost
    first.  Three pair finders, each a few C-level passes:

    * on the CHILD axis the one partner can only be the descendant's
      parent node.  The document keeps each node's parent label
      (:meth:`~repro.document.document.XmlDocument.tag_column`), so
      :meth:`_children` looks every descendant group's parent up among
      the ancestor groups' starts: one dict probe per group, whether
      or not the ancestors nest;
    * on the DESCENDANT axis when no ancestor group encloses another
      (one pass over the ancestor column tells): the chain is at most
      the predecessor, the group that starts last before the
      descendant (:meth:`_partners`);
    * on the DESCENDANT axis over nesting ancestors (``manager//…`` in
      Pers) a descendant joins every enclosing group, a chain of any
      length: the pairs are Stack-Tree-Anc's windows
      (:meth:`_windows`), put in descendant order by a stable sort of
      their indexes.
    """

    def __init__(self, ancestor_input: BlockOperator,
                 descendant_input: BlockOperator,
                 ancestor_node: int, descendant_node: int,
                 axis: Axis, context: EngineContext) -> None:
        super().__init__(ancestor_input, descendant_input,
                         ancestor_node, descendant_node, axis, context,
                         ordered_by=descendant_node)

    def _pairs(self, anc: ColumnGroups, desc: ColumnGroups
               ) -> tuple[list[int], list[int]]:
        if self.axis is Axis.CHILD:
            return self._children(anc, desc)
        if all(map(lt, anc.ends, islice(anc.starts, 1, None))):
            return self._partners(anc, desc)
        partners, groups = self._windows(anc, desc)
        # descendant-major, outermost ancestor first (the tuple
        # engine's stack order): a stable sort of the pair indexes by
        # descendant group keeps each group's partners in window order
        order = sorted(range(len(groups)), key=groups.__getitem__)
        return (list(map(partners.__getitem__, order)),
                list(map(groups.__getitem__, order)))

    def _children(self, anc: ColumnGroups, desc: ColumnGroups
                  ) -> tuple[list[int], list[int]]:
        """CHILD axis: the ancestor group that is each descendant
        group's parent node, where there is one, and those descendant
        groups, in descendant order.  An equality lookup of the parent
        label, so no end test, no level test and no nesting case: the
        parent nests its child one level up in every document."""
        column = self._columns[self.descendant_node]
        _, parents = self.context.document.tag_column(column.tag,
                                                      column.starts)
        if len(desc) != len(column):
            # a predicated or join-fed input: its groups are a subset
            # of the postings, found by label
            parents = list(map(parents.__getitem__, map(
                column.positions.__getitem__, desc.starts)))
        # a full ancestor scan's groups are its postings, whose cached
        # label-to-position map is then the index
        ancestors = self._columns[self.ancestor_node]
        index = (ancestors.positions if len(anc) == len(ancestors)
                 else dict(zip(anc.starts, count())))
        found = list(map(index.get, parents))
        kept = list(map(is_not, found, repeat(None)))
        return (list(compress(found, kept)),
                list(compress(range(len(found)), kept)))

    def _partners(self, anc: ColumnGroups, desc: ColumnGroups
                  ) -> tuple[list[int], list[int]]:
        """DESCENDANT axis over non-nesting ancestors: the partner
        ancestor group of every descendant group that has one, and
        those descendant groups, in descendant order.  The partner is
        the predecessor if it ends no earlier than the descendant."""
        # the predecessor: the last ancestor group that starts before
        # the descendant (bisect over a list: an array boxes an int
        # per probe); -1 (none) reads the trailing sentinel, which
        # fails the end test
        found = list(map(sub, map(bisect_left, repeat(list(anc.starts)),
                                  desc.starts), repeat(1)))
        ends = [*anc.ends, -1]
        kept = list(map(ge, map(ends.__getitem__, found), desc.ends))
        return (list(compress(found, kept)),
                list(compress(range(len(found)), kept)))


class BlockStackTreeAncJoin(_BlockJoinBase):
    """Structural join, output ordered by the ancestor binding.

    The tuple engine buffers results in self/inherit lists and emits
    them as ancestors pop; the net effect is preorder by ancestor
    group, each group's own pairs before those of the groups nested
    inside it — exactly the order in which :meth:`_windows` lists the
    pairs — and every output row is buffered once
    (``buffered_results``).  The CHILD axis keeps the windows (and
    their level test) too: Stack-Tree-Desc's parent lookup lists the
    pairs in descendant order, and over nesting ancestors putting them
    ancestor-major would take a sort.
    """

    ancestor_outer = True

    def __init__(self, ancestor_input: BlockOperator,
                 descendant_input: BlockOperator,
                 ancestor_node: int, descendant_node: int,
                 axis: Axis, context: EngineContext) -> None:
        super().__init__(ancestor_input, descendant_input,
                         ancestor_node, descendant_node, axis, context,
                         ordered_by=ancestor_node)

    def _pairs(self, anc: ColumnGroups, desc: ColumnGroups
               ) -> tuple[list[int], list[int]]:
        return self._windows(anc, desc)


class BlockNestedLoopJoin(_BlockJoinBase):
    """Quadratic oracle join, block form (identical probe order)."""

    def __init__(self, ancestor_input: BlockOperator,
                 descendant_input: BlockOperator,
                 ancestor_node: int, descendant_node: int,
                 axis: Axis, context: EngineContext) -> None:
        super().__init__(ancestor_input, descendant_input,
                         ancestor_node, descendant_node, axis, context,
                         ordered_by=ancestor_input.ordered_by)

    def _emit(self, bound: int | None) -> Iterator[list[int]]:
        self.metrics.join_count += 1
        anc_block, desc_block = self._input_blocks()
        anc_regions, desc_regions = (
            self.context.document.regions(_column_labels(
                block.rows, len(block.schema),
                block.schema.position(node)))
            for block, node in ((anc_block, self.ancestor_node),
                                (desc_block, self.descendant_node)))
        inner = list(zip(desc_regions, desc_block.rows))
        out: list[int] = []
        axis = self.axis
        for ancestor, anc_row in zip(anc_regions,
                                     self._shifted(anc_block)):
            out.extend(anc_row + desc_row
                       for descendant, desc_row in inner
                       if _related(ancestor, descendant, axis))
            if bound and len(out) >= bound:
                yield from self._cut(out, bound)
                bound = BLOCK_ROWS
        self.metrics.output_tuples += len(out)
        yield out
