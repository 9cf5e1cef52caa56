"""Columnar posting blocks: the decode-once representation.

A :class:`RegionBlock` holds one full posting list in struct-of-arrays
form — parallel C-typed ``array`` columns of start/end/level that
``bisect`` can search without touching a Python object per probe.

Blocks are **lazy**: only the packed columns are materialized at
decode time (10 bytes per posting).  The :class:`~repro.document.node.
Region` objects and the single-binding match rows the block engine
emits are built on first access and cached — operators that only
probe the packed columns (bisect skip-ahead, fence checks, merges)
never pay the ~10x per-posting object overhead, and a corpus whose
tags are decoded but not queried stays packed.

Blocks are built once per decode-cache epoch by
:meth:`~repro.storage.tagindex.TagIndex.scan_blocks` and then shared
across executions, so they are immutable by contract: consumers must
never mutate ``regions`` or ``rows`` in place (operators that filter
or reorder build fresh lists).
"""

from __future__ import annotations

from array import array
from typing import Iterator

from repro.document.node import Region

#: rough per-object heap costs used for resident-byte accounting
#: (measured on CPython 3.12: a slotted frozen Region and a 1-tuple,
#: plus the list slot that references each).
_REGION_BYTES = 64
_ROW_BYTES = 64
_LIST_SLOT_BYTES = 8


class RegionBlock:
    """One posting list in columnar form (parallel start/end/level)."""

    __slots__ = ("tag", "starts", "ends", "levels", "_regions", "_rows")

    def __init__(self, tag: str, starts: "array[int]",
                 ends: "array[int]", levels: "array[int]") -> None:
        self.tag = tag
        self.starts = starts
        self.ends = ends
        self.levels = levels
        self._regions: list[Region] | None = None
        self._rows: list[tuple[Region]] | None = None

    @property
    def regions(self) -> list[Region]:
        """Materialized :class:`Region` objects (built on first use)."""
        regions = self._regions
        if regions is None:
            regions = list(map(Region, self.starts, self.ends,
                               self.levels))
            self._regions = regions
        return regions

    @property
    def rows(self) -> list[tuple[Region]]:
        """Single-binding match rows, ready for the block engine."""
        rows = self._rows
        if rows is None:
            # zip(iterable) yields 1-tuples at C speed
            rows = list(zip(self.regions))
            self._rows = rows
        return rows

    @property
    def materialized(self) -> bool:
        """Whether regions/rows have been built (resident accounting)."""
        return self._regions is not None or self._rows is not None

    def packed_bytes(self) -> int:
        """Heap bytes held by the packed columns alone."""
        return sum(column.itemsize * len(column)
                   for column in (self.starts, self.ends, self.levels))

    def resident_bytes(self) -> int:
        """Estimated heap bytes this block currently keeps alive."""
        total = self.packed_bytes()
        if self._regions is not None:
            total += len(self._regions) * (_REGION_BYTES
                                           + _LIST_SLOT_BYTES)
        if self._rows is not None:
            total += len(self._rows) * (_ROW_BYTES + _LIST_SLOT_BYTES)
        return total

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self) -> Iterator[Region]:
        return iter(self.regions)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"RegionBlock({self.tag!r}, {len(self.starts)} postings"
                f"{', packed' if not self.materialized else ''})")
