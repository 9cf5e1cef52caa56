"""Rows and operator schemas.

Operators agree on a :class:`Schema` — the ordered list of pattern-node
ids their rows carry — and a row binds each of those pattern nodes to
one node of the data tree.  It has two forms:

* a :data:`LabelRow`, a plain tuple of start labels — what the block
  engine joins, what a stream's ``blocks()`` / ``fetchall()`` and a
  result's ``rows`` hold, what crosses the shard pipe and the wire.  A
  start label identifies its node, and a tuple of ints is dropped by
  CPython's cyclic collector on its first visit, so a big result is
  not re-walked by every full collection.
* a :data:`MatchTuple`, the same row as
  :class:`~repro.document.node.Region` values — what the reference
  iterators (``scan.py`` / ``stackjoin.py`` / ``sort.py``) pass among
  themselves, and the *view* a caller gets from ``result.tuples``,
  ``bindings()`` or iterating a stream, built on demand from the
  labels (:func:`repro.engine.executor.region_view`).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import PlanError
from repro.document.node import Region

#: A row as start labels, aligned with its schema.
LabelRow = tuple[int, ...]
#: The same row as regions — the iterators' currency, the callers' view.
MatchTuple = tuple[Region, ...]


class Schema:
    """Ordered pattern-node ids carried by a tuple stream."""

    __slots__ = ("node_ids", "_index")

    def __init__(self, node_ids: Iterable[int]) -> None:
        self.node_ids: tuple[int, ...] = tuple(node_ids)
        if len(set(self.node_ids)) != len(self.node_ids):
            raise PlanError(f"schema has duplicate nodes: {self.node_ids}")
        self._index = {node_id: position
                       for position, node_id in enumerate(self.node_ids)}

    def __len__(self) -> int:
        return len(self.node_ids)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.node_ids == other.node_ids

    def __hash__(self) -> int:
        return hash(self.node_ids)

    def position(self, node_id: int) -> int:
        """Index of *node_id* within tuples of this schema."""
        position = self._index.get(node_id)
        if position is None:
            raise PlanError(f"node {node_id} not in schema {self.node_ids}")
        return position

    def binding(self, match: MatchTuple, node_id: int) -> Region:
        """The region bound to *node_id* in *match*."""
        return match[self.position(node_id)]

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join output: left columns then right columns."""
        overlap = set(self.node_ids) & set(other.node_ids)
        if overlap:
            raise PlanError(f"schemas overlap on nodes {sorted(overlap)}")
        return Schema(self.node_ids + other.node_ids)

    def as_mapping(self, match: MatchTuple) -> Mapping[int, Region]:
        """Dict view of a tuple (for display and tests)."""
        return dict(zip(self.node_ids, match))

    def canonical_key(self, row: LabelRow) -> LabelRow:
        """Order-independent identity of a row (for set comparison):
        its labels in pattern-node order."""
        return tuple(label for _, label in
                     sorted(zip(self.node_ids, row)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Schema{self.node_ids}"
