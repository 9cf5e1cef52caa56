"""Rows and operator schemas.

Operators agree on a :class:`Schema` — the ordered list of pattern-node
ids their rows carry — and a row binds each of those pattern nodes to
one node of the data tree by its start label, which identifies the
node.  A row has three forms, and which one a piece of code sees is
decided by where it sits:

* inside the block engine, a **row int**: the row's labels packed
  ``LABEL_BITS`` apart, the first schema column in the highest bits
  (:func:`row_shift`), so int order is the order of the labels read
  as a tuple.  A join's output row is its ancestor row shifted past
  the descendant's columns plus its descendant row; an int is no
  container, so the cyclic collector never sees one.
* above the engine, :class:`PackedRows` — what a stream's
  ``blocks()`` / ``fetchall()`` and a result's ``rows`` are, what the
  shard pipe and the wire encoders read: the labels flattened
  row-major into one ``array`` of the posting columns' own label
  typecode (:data:`~repro.storage.frames.LABEL_TYPECODE`), on a node
  and on a fleet alike.  Reading it row by row gives a
  :data:`LabelRow`, a plain tuple of start labels, built on demand.
* a :data:`MatchTuple`, the same row as
  :class:`~repro.document.node.Region` values — what the reference
  iterators (``scan.py`` / ``stackjoin.py`` / ``sort.py``) pass among
  themselves, and the *view* a caller gets from ``result.tuples``,
  ``bindings()`` or iterating a stream, built on demand from the
  labels (:func:`repro.engine.executor.region_view`).
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from itertools import chain, repeat
from operator import eq
from typing import Iterable, Iterator, Mapping

from repro.errors import PlanError
from repro.document.node import Region
from repro.storage.frames import LABEL_BITS, LABEL_TYPECODE

#: A row as a tuple of start labels, aligned with its schema: what
#: reading :class:`PackedRows` row by row hands out, built on demand.
LabelRow = tuple[int, ...]
#: The same row as regions — the iterators' currency, the callers' view.
MatchTuple = tuple[Region, ...]

#: one label's bits in a row int
LABEL_MASK = (1 << LABEL_BITS) - 1
_LITTLE_ENDIAN = sys.byteorder == "little"


def row_shift(width: int, position: int) -> int:
    """Where column *position* of a *width*-column row int starts."""
    return LABEL_BITS * (width - 1 - position)


def flatten(rows: Sequence[int], width: int) -> array:
    """Row ints as their labels, row-major, in one typed ``array``:
    each row is ``int.to_bytes`` big-endian (first column first) under
    ``map``, the bytes are joined once and read by one ``frombytes``.
    A one-column row int is its label already."""
    if width == 1:
        return array(LABEL_TYPECODE, rows)
    labels = array(LABEL_TYPECODE)
    labels.frombytes(b"".join(map(int.to_bytes, rows,
                                  repeat(LABEL_BITS // 8 * width),
                                  repeat("big"))))
    if _LITTLE_ENDIAN:
        labels.byteswap()
    return labels


class PackedRows(Sequence):
    """Rows of *width* labels, packed: what every reader above the
    engine is handed, from a node or a fleet.

    ``labels`` is row-major — row *r*'s label for schema column *c* is
    ``labels[r * width + c]`` — and a :data:`LabelRow` is cut from it
    only when a row is read.  Built from the engine's row ints
    (:meth:`of_ints`), the rows stay ints until ``labels`` is first
    read, so ``len`` reads nothing and a result nobody reads is never
    flattened.  Read-only; a slice is a ``PackedRows`` of its own.
    """

    __slots__ = ("width", "_labels", "_ints")

    def __init__(self, labels: array, width: int) -> None:
        self.width = width
        self._labels: array | None = labels
        self._ints: Sequence[int] | None = None

    @classmethod
    def of_ints(cls, rows: Sequence[int], width: int) -> "PackedRows":
        """The block engine's row ints, flattened on first read."""
        packed = cls(None, width)
        packed._ints = rows
        return packed

    @classmethod
    def of_tuples(cls, rows: Iterable[LabelRow],
                  width: int) -> "PackedRows":
        """Label rows (tuples) packed."""
        return cls(array(LABEL_TYPECODE, chain.from_iterable(rows)),
                   width)

    @classmethod
    def join(cls, parts: Iterable["PackedRows"],
             width: int) -> "PackedRows":
        """Consecutive runs of one source's rows as one."""
        labels = array(LABEL_TYPECODE)
        for part in parts:
            if part:
                labels.extend(part.labels)
        return cls(labels, width)

    @property
    def labels(self) -> array:
        """The flattened labels (flattened now, if still row ints)."""
        if self._labels is None:
            self._labels = flatten(self._ints, self.width)
            self._ints = None
        return self._labels

    def __len__(self) -> int:
        if self._ints is not None:
            return len(self._ints)
        return len(self._labels) // self.width

    def __iter__(self) -> Iterator[LabelRow]:
        return zip(*[iter(self.labels)] * self.width)

    def __getitem__(self, index):
        width = self.width
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return PackedRows.of_tuples(
                    map(self.__getitem__, range(start, stop, step)),
                    width)
            if self._ints is not None:
                return PackedRows.of_ints(self._ints[start:stop], width)
            return PackedRows(self._labels[start * width:stop * width],
                              width)
        row = range(len(self))[index] * width
        return tuple(self.labels[row:row + width])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedRows) and other.width == self.width:
            return self.labels == other.labels
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"PackedRows({list(self)!r}, width={self.width})"


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
