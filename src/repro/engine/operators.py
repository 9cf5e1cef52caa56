"""Operator protocol for the iterator engine.

Operators are single-use: construct, then iterate :meth:`Operator.run`
once.  Each operator knows its output :class:`~repro.engine.tuples.Schema`
and the pattern node by which its output stream is ordered; downstream
operators rely on that contract and verify it while consuming (a
violated ordering is a planner bug and raises immediately rather than
silently corrupting results).
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import PlanError
from repro.document.node import Region
from repro.engine.metrics import ExecutionMetrics
from repro.engine.tuples import MatchTuple, Schema


class Operator:
    """Base class of all physical operators."""

    def __init__(self, schema: Schema, ordered_by: int,
                 metrics: ExecutionMetrics) -> None:
        if ordered_by not in schema:
            raise PlanError(
                f"operator ordered by {ordered_by}, which is not in its "
                f"schema {schema.node_ids}")
        self.schema = schema
        self.ordered_by = ordered_by
        self.metrics = metrics
        #: tracing hook (:class:`repro.obs.spans.Span`): attached by the
        #: executor for traced runs, ``None`` otherwise.  The only cost
        #: when tracing is off is the one ``is None`` check in
        #: :meth:`run` — never anything per tuple.
        self._span = None
        self._consumed = False

    def run(self) -> Iterator[MatchTuple]:
        """Produce the output stream.  May be called once."""
        if self._consumed:
            raise PlanError("operator streams are single-use")
        self._consumed = True
        stream = self._produce()
        if self._span is None:
            return stream
        return self._span.wrap(stream)

    def _produce(self) -> Iterator[MatchTuple]:
        raise NotImplementedError


class OrderCheckingIterator:
    """Wrap a tuple stream, asserting it is ordered by one column.

    Used by join operators on their inputs: the stack-tree algorithms
    are only correct on document-ordered inputs, so a violation is
    surfaced as a :class:`~repro.errors.PlanError` at the first
    offending tuple.
    """

    def __init__(self, source: Iterator[MatchTuple], schema: Schema,
                 ordered_by: int, label: str = "input") -> None:
        self._source = source
        self._position = schema.position(ordered_by)
        self._label = label
        self._last_start = -1

    def __iter__(self) -> Iterator[MatchTuple]:
        for match in self._source:
            start = match[self._position].start
            if start < self._last_start:
                raise PlanError(
                    f"{self._label} is not ordered by its declared "
                    f"column (saw start {start} after {self._last_start})")
            self._last_start = start
            yield match


def group_by_column(stream: Iterator[MatchTuple], schema: Schema,
                    node_id: int) -> Iterator[tuple[Region, list[MatchTuple]]]:
    """Group an ordered tuple stream by one bound region.

    Adjacent tuples sharing the same region in column *node_id* are
    collected into one group, preserving order.  Join operators work on
    groups so the region-nesting invariant of the join stack holds even
    when intermediate results bind the same data node many times.
    """
    position = schema.position(node_id)
    current_region: Region | None = None
    bucket: list[MatchTuple] = []
    for match in stream:
        region = match[position]
        if current_region is not None and region == current_region:
            bucket.append(match)
        else:
            if current_region is not None:
                yield current_region, bucket
            current_region = region
            bucket = [match]
    if current_region is not None:
        yield current_region, bucket
