"""Tag index: tag name -> paged posting list of region encodings.

This is the access method behind the paper's "index access" operation
(cost ``f_I * n`` for retrieving *n* items, Sec. 2.2.2).  Each posting
entry carries the full region encoding ``(start, end, level)``, so a
structural join can run off index output alone; a value predicate
reads the element's text or attributes from the document.  The index
holds a posting for exactly the live node ids, so it is also what
says which of the element store's records are live
(:meth:`repro.api.Database.open`).

Posting lists are stored as **compressed columnar frames** (one frame
per page, delta-encoded and byte-packed — see
:mod:`repro.storage.frames`), one chain of pages per tag with entries
in document order.  Pages are read through the buffer pool's
zero-copy :meth:`~repro.storage.buffer.BufferPool.fetch_view`, so
every index scan is visible to the I/O counters while a cold decode
touches the page bytes exactly once (no record lists, no per-entry
unpack).

An index has two writers and no third: :meth:`TagIndex.index_document`
packs a fresh index once, tag by tag, and after that every change is a
transaction's splice (:meth:`TagIndex.apply_edits` on a
:meth:`~TagIndex.clone_for_write` clone), which repacks the touched
run of a chain into fresh pages.  Both go through one packer, and no
page is ever rewritten in place.

Two read paths exist:

* :meth:`TagIndex.scan` — the tuple engine's iterator: decodes one
  page at a time and yields a :class:`Region` per entry.
* :meth:`TagIndex.scan_blocks` — the block engine's columnar path:
  bulk-decodes each page of a chain exactly once into a *lazy*
  :class:`~repro.storage.postings.RegionBlock` (packed columns; the
  label-to-position map is built on demand, and no Region ever is)
  and caches the block until the index mutates.  ``decode_epoch``
  counts those invalidations; :meth:`~repro.api.Database.reload`
  discards the whole index, so stale blocks can never serve a
  reloaded document.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, islice
from operator import lt, not_
from typing import Iterable, Iterator, Sequence

from repro.errors import StorageError
from repro.document.document import XmlDocument
from repro.document.node import Region
from repro.storage.buffer import BufferPool
from repro.storage.frames import (LABEL_TYPECODE, LEVEL_TYPECODE,
                                  FrameHeader, pack_frames, peek_header,
                                  unpack_frame)
from repro.storage.pages import PAGE_SIZE
from repro.storage.postings import RegionBlock


def _concat_columns(parts: Iterable[Sequence[array]]
                    ) -> tuple[array, array, array]:
    """Decoded ``(starts, ends, levels)`` columns, one part after
    another, as one set of columns."""
    columns = (array(LABEL_TYPECODE), array(LABEL_TYPECODE),
               array(LEVEL_TYPECODE))
    for part in parts:
        for column, values in zip(columns, part):
            column.extend(values)
    return columns


class TagIndex:
    """Inverted index from element tag to its document-ordered postings."""

    def __init__(self, pool: BufferPool) -> None:
        self.pool = pool
        # tag -> list of page ids holding that tag's postings, in order.
        self._page_chains: dict[str, list[int]] = {}
        self._counts: dict[str, int] = {}
        # sorted tag listing, rebuilt only when a chain appears.
        self._sorted_tags: tuple[str, ...] | None = None
        # decoded posting blocks, per tag plus the all-tags merge.
        self._blocks: dict[str, RegionBlock] = {}
        self._merged_block: RegionBlock | None = None
        # per-tag compressed bytes on disk, filled lazily from frame
        # headers and dropped whenever the tag's chain changes.
        self._compressed: dict[str, int] = {}
        #: bumped whenever cached decoded blocks are invalidated.
        self.decode_epoch = 0

    # -- build --------------------------------------------------------------

    def index_document(self, document: XmlDocument) -> None:
        """Build the index of *document*: each tag's postings, grouped
        in order of the tag's first appearance, packed once into a
        fresh chain of frame pages.

        An index is built once; after that it changes only through
        :meth:`apply_edits` (a transaction's splice), so building over
        existing postings is refused.
        """
        if self._page_chains:
            raise StorageError(
                "the index is already built; splice further postings "
                "with apply_edits")
        columns: dict[str, tuple[list[int], list[int], list[int]]] = {}
        for node in document:
            run = columns.get(node.tag)
            if run is None:
                run = columns[node.tag] = ([], [], [])
            run[0].append(node.start)
            run[1].append(node.end)
            run[2].append(node.level)
        for tag, (starts, ends, levels) in columns.items():
            self._page_chains[tag] = self._pack_entries(starts, ends,
                                                        levels)
            self._counts[tag] = len(starts)
        self._sorted_tags = None
        self.decode_epoch += 1
        self.pool.flush()

    def _header(self, page_id: int) -> FrameHeader:
        """One page's frame header (fences, count, byte length)."""
        return peek_header(self.pool.fetch_view(page_id))

    def _store_frame(self, page, frame: bytes) -> None:
        """Write *frame* at the front of a pinned page and release it."""
        page.data[:len(frame)] = frame
        if len(frame) < PAGE_SIZE:
            page.data[len(frame):] = bytes(PAGE_SIZE - len(frame))
        self.pool.unpin(page.page_id, dirty=True)

    # -- read ----------------------------------------------------------------

    def tags(self) -> list[str]:
        if self._sorted_tags is None:
            self._sorted_tags = tuple(sorted(self._page_chains))
        return list(self._sorted_tags)

    def count(self, tag: str) -> int:
        """Number of postings for *tag* (0 if absent)."""
        return self._counts.get(tag, 0)

    def scan(self, tag: str) -> Iterator[Region]:
        """Yield the postings of *tag* in document order."""
        for page_id in self._page_chains.get(tag, ()):
            starts, ends, levels = unpack_frame(
                self.pool.fetch_view(page_id))
            yield from map(Region, starts, ends, levels)

    def scan_blocks(self, tag: str) -> RegionBlock:
        """The postings of *tag* as one cached columnar block.

        The first call per epoch decodes the tag's page chain — each
        page read once as a zero-copy view, each frame bulk-unpacked
        into packed columns — and caches the (lazy) block; later
        calls return the same block without touching the pool.
        """
        block = self._blocks.get(tag)
        if block is None:
            block = self._decode_chain(tag)
            self._blocks[tag] = block
        return block

    def scan_blocks_all(self) -> RegionBlock:
        """All postings of every tag, merged in document order.

        This is the wildcard-scan candidate set; the merge runs over
        the packed columns (an index argsort on the start column) —
        no Region is materialized — and is cached alongside the
        per-tag blocks.
        """
        if self._merged_block is None:
            columns = _concat_columns(
                (block.starts, block.ends, block.levels)
                for block in map(self.scan_blocks, self.tags()))
            order = sorted(range(len(columns[0])),
                           key=columns[0].__getitem__)
            self._merged_block = RegionBlock("*", *(
                array(column.typecode, map(column.__getitem__, order))
                for column in columns))
        return self._merged_block

    def _decode_chain(self, tag: str) -> RegionBlock:
        chain = self._page_chains.get(tag, ())
        if len(chain) == 1:
            return RegionBlock(tag, *unpack_frame(
                self.pool.fetch_view(chain[0])))
        return RegionBlock(tag, *_concat_columns(
            unpack_frame(self.pool.fetch_view(page_id))
            for page_id in chain))

    def drop_caches(self) -> None:
        """Discard every cached decoded block (cold-start simulation).

        Benchmarks use this to measure the decode-inclusive cost of a
        first query; the epoch bump keeps any block handed out earlier
        distinguishable from a re-decode.
        """
        self._blocks.clear()
        self._merged_block = None
        self.decode_epoch += 1

    def node_ids(self) -> set[int]:
        """Every indexed node id (== start label): the live ids.  Read
        off each chain page's start column; fills no decode cache."""
        ids: set[int] = set()
        for chain in self._page_chains.values():
            for page_id in chain:
                ids.update(unpack_frame(self.pool.fetch_view(page_id))[0])
        return ids

    def regions(self, tag: str) -> list[Region]:
        """The full posting list of *tag* as a list."""
        return list(self.scan(tag))

    def chains(self) -> dict[str, list[int]]:
        """Per-tag page chains (persisted in the catalog)."""
        return {tag: list(chain)
                for tag, chain in self._page_chains.items()}

    def chain(self, tag: str) -> list[int]:
        """One tag's page chain (empty if the tag has no postings)."""
        return list(self._page_chains.get(tag, ()))

    def counts(self) -> dict[str, int]:
        """Per-tag posting counts (persisted in the catalog)."""
        return dict(self._counts)

    # -- mutation (transactional write path) --------------------------------

    def clone_for_write(self) -> "TagIndex":
        """A copy-on-write clone for a transaction to mutate.

        Page chains are shared until :meth:`apply_edits` repacks a
        touched run into fresh pages; untouched tags keep their pages
        *and* their cached decoded blocks.  No page is ever written in
        place, so the published index never sees the clone's edits.
        """
        clone = TagIndex(self.pool)
        clone._page_chains = {tag: list(chain)
                              for tag, chain in self._page_chains.items()}
        clone._counts = dict(self._counts)
        clone._blocks = dict(self._blocks)
        clone._merged_block = self._merged_block
        clone._compressed = dict(self._compressed)
        clone.decode_epoch = self.decode_epoch
        return clone

    def apply_edits(
            self,
            edits: dict[str, tuple[set[int], list[tuple[int, int, int]]]],
    ) -> None:
        """Splice per-tag posting edits, copy-on-write.

        ``edits`` maps each touched tag to ``(removed_starts,
        added_entries)`` where entries are ``(start, end, level)``
        tuples.  For each tag the page run covering the edited key
        range is located via the frames' min-start fences, decoded,
        spliced, and repacked into *fresh* pages; pages outside the
        run — and every page of an untouched tag — are shared with the
        pre-edit index, so snapshots taken before the edit keep
        reading a consistent chain.
        """
        for tag, (removed_starts, added_entries) in edits.items():
            if not removed_starts and not added_entries:
                continue
            self._splice_tag(tag, set(removed_starts),
                             sorted(added_entries))
            self._blocks.pop(tag, None)
            self._merged_block = None
            self._sorted_tags = None
            self._compressed.pop(tag, None)
        self.decode_epoch += 1

    def _splice_tag(self, tag: str, removed: set[int],
                    added: list[tuple[int, int, int]]) -> None:
        chain = self._page_chains.get(tag, [])
        if chain:
            fences = self._fences(chain)
            bounds = [*removed, *(entry[0] for entry in added)]
            # first page whose key range may reach the lowest key: the
            # last fence at or below it (an insert before a page's
            # first key goes on the preceding page to keep the chain
            # sorted); last: likewise for the highest key
            first = max(bisect_right(fences, min(bounds)) - 1, 0)
            last = max(bisect_right(fences, max(bounds)) - 1, first)
            run = chain[first:last + 1]
        else:
            first, last, run = 0, -1, []
        # the run as three columns; every whole-column step is C speed
        starts: list[int] = []
        ends: list[int] = []
        levels: list[int] = []
        for page_id in run:
            page_starts, page_ends, page_levels = unpack_frame(
                self.pool.fetch_view(page_id))
            starts.extend(page_starts)
            ends.extend(page_ends)
            levels.extend(page_levels)
        if removed:
            keep = list(map(not_, map(removed.__contains__, starts)))
            if len(starts) - sum(keep) != len(removed):
                found = removed.intersection(starts)
                raise StorageError(
                    f"tag {tag!r}: {len(removed) - len(found)} "
                    "posting(s) to remove not found in the spliced run")
            starts = list(compress(starts, keep))
            ends = list(compress(ends, keep))
            levels = list(compress(levels, keep))
        for start, end, level in added:
            at = bisect_left(starts, start)
            starts.insert(at, start)
            ends.insert(at, end)
            levels.insert(at, level)
        if not all(map(lt, starts, islice(starts, 1, None))):
            duplicate = next(start for start, following
                             in zip(starts, islice(starts, 1, None))
                             if start == following)
            raise StorageError(
                f"tag {tag!r}: duplicate posting start {duplicate}")
        fresh = self._pack_entries(starts, ends, levels) if starts else []
        new_chain = chain[:first] + fresh + chain[last + 1:]
        if new_chain:
            self._page_chains[tag] = new_chain
            self._counts[tag] = (self._counts.get(tag, 0)
                                 + len(added) - len(removed))
        else:
            self._page_chains.pop(tag, None)
            self._counts.pop(tag, None)

    def _fences(self, chain: list[int]) -> list[int]:
        """Min-start fence of every page in *chain* (header peeks)."""
        return [self._header(page_id).first_start for page_id in chain]

    def _pack_entries(self, starts: Sequence[int], ends: Sequence[int],
                      levels: Sequence[int]) -> list[int]:
        """Write postings, as three parallel columns, into freshly
        allocated frame pages — the one packer of the build and of
        every splice."""
        page_ids: list[int] = []
        for frame in pack_frames(starts, ends, levels):
            page = self.pool.new_page()
            page_ids.append(page.page_id)
            self._store_frame(page, frame)
        return page_ids

    @classmethod
    def attach(cls, pool: BufferPool, chains: dict[str, list[int]],
               counts: dict[str, int]) -> "TagIndex":
        """Rebuild an index from its catalog entry (database reopen)."""
        index = cls(pool)
        index._page_chains = {tag: list(chain)
                              for tag, chain in chains.items()}
        index._counts = dict(counts)
        return index

    # -- accounting ----------------------------------------------------------

    def page_count(self, tag: str | None = None) -> int:
        """Pages used by one tag's chain, or by the whole index."""
        if tag is not None:
            return len(self._page_chains.get(tag, ()))
        return sum(len(chain) for chain in self._page_chains.values())

    def compressed_bytes(self, tag: str | None = None) -> int:
        """Frame bytes on disk for one tag's chain (or the index).

        Read from frame headers — one header peek per page on first
        use, cached until the tag's chain changes.
        """
        if tag is not None:
            cached = self._compressed.get(tag)
            if cached is None:
                cached = sum(self._header(page_id).length
                             for page_id in
                             self._page_chains.get(tag, ()))
                self._compressed[tag] = cached
            return cached
        return sum(self.compressed_bytes(name)
                   for name in self._page_chains)

    def decoded_bytes(self, tag: str | None = None) -> int:
        """Heap bytes held by cached decoded blocks (0 if not decoded)."""
        if tag is not None:
            block = self._blocks.get(tag)
            return block.resident_bytes() if block is not None else 0
        total = sum(block.resident_bytes()
                    for block in self._blocks.values())
        if self._merged_block is not None:
            total += self._merged_block.resident_bytes()
        return total

    def storage_stats(self) -> dict[str, object]:
        """Compression and residency accounting for diagnostics.

        ``per_tag`` maps each tag to its posting count, page count,
        compressed bytes on disk, and the decoded block's resident
        bytes (0 while the tag's block is not cached; grows when a
        join builds the label-to-position map).
        """
        per_tag = {}
        for tag in self.tags():
            block = self._blocks.get(tag)
            per_tag[tag] = {
                "postings": self._counts.get(tag, 0),
                "pages": len(self._page_chains.get(tag, ())),
                "compressed_bytes": self.compressed_bytes(tag),
                "decoded_bytes": (block.resident_bytes()
                                  if block is not None else 0),
            }
        return {
            "per_tag": per_tag,
            "compressed_bytes": sum(entry["compressed_bytes"]
                                    for entry in per_tag.values()),
            "decoded_bytes": self.decoded_bytes(),
            "decoded_tags": len(self._blocks),
            "decode_epoch": self.decode_epoch,
        }

    def collect_gauges(self, registry) -> None:
        """Set the compressed/decoded posting-byte gauges (per tag and
        in total) on a metrics registry."""
        storage = self.storage_stats()
        compressed_gauge = registry.gauge(
            "repro_index_compressed_bytes",
            "Compressed posting-frame bytes on disk, per tag")
        decoded_gauge = registry.gauge(
            "repro_index_decoded_bytes",
            "Decoded posting-block resident bytes, per tag")
        for tag, entry in storage["per_tag"].items():
            compressed_gauge.set(entry["compressed_bytes"], tag=tag)
            decoded_gauge.set(entry["decoded_bytes"], tag=tag)
        registry.gauge(
            "repro_index_compressed_bytes_total",
            "Compressed posting-frame bytes on disk"
        ).set(storage["compressed_bytes"])
        registry.gauge(
            "repro_index_decoded_bytes_total",
            "Decoded posting-block resident bytes"
        ).set(storage["decoded_bytes"])
