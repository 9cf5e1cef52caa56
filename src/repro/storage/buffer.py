"""LRU buffer pool over a :class:`~repro.storage.disk.DiskManager`.

The pool holds a bounded number of page frames.  Pages are obtained
with :meth:`BufferPool.fetch` (pin) and returned with
:meth:`BufferPool.unpin`; pinned pages are never evicted.  Dirty pages
are written back on eviction or :meth:`flush`.  Hit/miss counters make
the pool's behaviour observable to the benchmark harness — the paper's
experiments ran with a 16 MB SHORE pool, and buffer locality is part of
why index scans cost what they cost.

The pool is safe under concurrent readers: every operation that
touches the frame table, pin counts, or counters runs under one
re-entrant mutex, so the serving layer
(:meth:`repro.api.Database.query_many`) can drive many executions over
a single pool.  A single lock (rather than lock striping) is the right
trade-off here: critical sections are a dict probe plus an integer
update, far cheaper than the page decoding done outside the lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import BufferPoolError
from repro.storage.disk import DiskManager
from repro.storage.pages import Page


@dataclass
class BufferStats:
    """Hit/miss/eviction counters for one pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: misses served as zero-copy disk views (no frame populated).
    view_misses: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.view_misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class _Frame:
    __slots__ = ("page", "pin_count")

    def __init__(self, page: Page) -> None:
        self.page = page
        self.pin_count = 0


class BufferPool:
    """Fixed-capacity LRU page cache with pin counting."""

    def __init__(self, disk: DiskManager, capacity: int = 256) -> None:
        if capacity < 1:
            raise BufferPoolError("capacity must be at least 1")
        self.disk = disk
        self.capacity = capacity
        self.stats = BufferStats()
        self._mutex = threading.RLock()
        # Ordered oldest-first; move_to_end on access implements LRU.
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._frames)

    def fetch(self, page_id: int) -> Page:
        """Pin and return the page, reading it from disk on a miss."""
        with self._mutex:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.stats.hits += 1
                self._frames.move_to_end(page_id)
            else:
                self.stats.misses += 1
                self._ensure_capacity()
                frame = _Frame(self.disk.read_page(page_id))
                self._frames[page_id] = frame
            frame.pin_count += 1
            return frame.page

    def fetch_view(self, page_id: int) -> memoryview:
        """The page's bytes as a read-only snapshot, zero-copy if safe.

        The read-path decision table:

        * **resident frame** (clean or dirty) — the pool copy is the
          truth (it may be newer than disk); served as a copy of the
          frame bytes, counted as a hit.  Dirty or WAL-managed pages
          therefore always take this path: they are resident until
          write-back.
        * **not resident, disk supports views** — served as a
          zero-copy ``memoryview`` straight off the disk image (mmap
          for :class:`~repro.storage.disk.FileDisk`); no frame is
          populated, so bulk decodes do not evict the working set.
          Correctness leans on the eviction invariant: a dirty page is
          only ever dropped after write-back, so a non-resident page's
          latest bytes are always on disk.
        * **not resident, no view support** — the page is read and
          cached like :meth:`fetch` (unpinned) and a copy is returned.

        Unlike :meth:`fetch` there is no pin to release, which is what
        makes this the right primitive for whole-page columnar
        decodes.
        """
        with self._mutex:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.stats.hits += 1
                self._frames.move_to_end(page_id)
                return memoryview(bytes(frame.page.data))
            self.stats.misses += 1
            view = self.disk.read_view(page_id)
            if view is not None:
                self.stats.view_misses += 1
                return view
            self._ensure_capacity()
            frame = _Frame(self.disk.read_page(page_id))
            self._frames[page_id] = frame
            return memoryview(bytes(frame.page.data))

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        """Release one pin; mark the page dirty if it was modified."""
        with self._mutex:
            frame = self._frames.get(page_id)
            if frame is None:
                raise BufferPoolError(f"page {page_id} is not in the pool")
            if frame.pin_count == 0:
                raise BufferPoolError(f"page {page_id} is not pinned")
            frame.pin_count -= 1
            if dirty:
                frame.page.dirty = True

    def new_page(self) -> Page:
        """Allocate a fresh page on disk and pin it in the pool."""
        with self._mutex:
            page_id = self.disk.allocate()
            self._ensure_capacity()
            page = Page(page_id)
            frame = _Frame(page)
            frame.pin_count = 1
            page.dirty = True
            self._frames[page_id] = frame
            return page

    def flush(self) -> None:
        """Write all dirty pages back to disk (pages stay cached)."""
        with self._mutex:
            for frame in self._frames.values():
                if frame.page.dirty:
                    self.disk.write_page(frame.page)

    def clear(self) -> None:
        """Flush and drop every unpinned frame."""
        with self._mutex:
            self.flush()
            pinned = {page_id: frame
                      for page_id, frame in self._frames.items()
                      if frame.pin_count > 0}
            self._frames = OrderedDict(pinned)

    def _ensure_capacity(self) -> None:
        # caller holds the mutex
        while len(self._frames) >= self.capacity:
            victim_id = next(
                (page_id for page_id, frame in self._frames.items()
                 if frame.pin_count == 0), None)
            if victim_id is None:
                raise BufferPoolError("all frames are pinned")
            frame = self._frames[victim_id]
            # Write back *before* dropping the frame: if the disk write
            # raises, the dirty page must stay in the pool instead of
            # silently losing its updates.
            if frame.page.dirty:
                self.disk.write_page(frame.page)
            self._frames.pop(victim_id)
            self.stats.evictions += 1

    def collect_gauges(self, registry) -> None:
        """Set the pool's hit/miss/residency gauges on a metrics
        registry (pulled before every export, nothing on the fetch
        path)."""
        stats = self.stats
        registry.gauge("repro_buffer_pool_hits",
                       "Buffer pool hits").set(stats.hits)
        registry.gauge("repro_buffer_pool_misses",
                       "Buffer pool misses").set(stats.misses)
        registry.gauge("repro_buffer_pool_hit_rate",
                       "Buffer pool hit rate").set(stats.hit_rate)
        registry.gauge("repro_buffer_pool_resident_pages",
                       "Pages resident in the buffer pool"
                       ).set(len(self))
        registry.gauge("repro_buffer_pool_view_misses",
                       "Pool misses served as zero-copy disk views"
                       ).set(stats.view_misses)
        registry.gauge("repro_buffer_pool_pinned_pages",
                       "Pages currently pinned (0 between queries)"
                       ).set(len(self.pinned_pages()))

    def pinned_pages(self) -> list[int]:
        """Ids of currently pinned pages (diagnostics / tests)."""
        with self._mutex:
            return [page_id for page_id, frame in self._frames.items()
                    if frame.pin_count > 0]

    def pin_count(self, page_id: int) -> int:
        """Current pin count of *page_id* (0 if not resident)."""
        with self._mutex:
            frame = self._frames.get(page_id)
            return frame.pin_count if frame is not None else 0

    def check_invariants(self) -> None:
        """Assert pool invariants; raises :class:`BufferPoolError`.

        Intended for tests and post-batch health checks: the frame
        count must respect capacity and no frame may hold a negative
        pin count.
        """
        with self._mutex:
            if len(self._frames) > self.capacity:
                raise BufferPoolError(
                    f"pool holds {len(self._frames)} frames, capacity "
                    f"is {self.capacity}")
            for page_id, frame in self._frames.items():
                if frame.pin_count < 0:
                    raise BufferPoolError(
                        f"page {page_id} has negative pin count "
                        f"{frame.pin_count}")
