"""Blocking sort operator.

Materializes its input, sorts by the start position of the requested
column, and re-emits.  Sorting is the only blocking operation in the
plan space (Fig. 2): a plan containing a sort is not fully pipelined.
The ``n * log2 n`` work is recorded in ``metrics.sort_units``, which
the simulated-cost formula weights by ``f_s`` exactly as the cost model
does.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.operators import Operator
from repro.engine.tuples import MatchTuple


class SortOperator(Operator):
    """Sort a tuple stream by one bound node's document position."""

    def __init__(self, child: Operator, by_node: int) -> None:
        super().__init__(child.schema, by_node, child.metrics)
        self.child = child
        self.by_node = by_node

    def _produce(self) -> Iterator[MatchTuple]:
        position = self.schema.position(self.by_node)
        materialized = list(self.child.run())
        self.metrics.record_sort(len(materialized))
        materialized.sort(key=lambda match: match[position].start)
        yield from materialized
