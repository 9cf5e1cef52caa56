"""Disk managers: page-granularity persistence with I/O accounting.

Two implementations share the :class:`DiskManager` interface:

* :class:`InMemoryDisk` — a dict of page images; the default for tests
  and benchmarks.  "I/O" is still counted, which is what the cost model
  consumes.
* :class:`FileDisk` — a real file of 8 KiB pages, for persistence
  examples and to keep the storage layer honest about serialization.

Both count physical reads and writes in :class:`IOStats`; the buffer
pool sits on top and adds hit/miss accounting.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass

from repro.errors import StorageError
from repro.storage.pages import PAGE_SIZE, Page


@dataclass
class IOStats:
    """Physical I/O counters for one disk manager."""

    reads: int = 0
    writes: int = 0
    allocations: int = 0
    #: subset of ``reads`` served as zero-copy views (mmap or
    #: in-memory buffer) instead of a page copy.
    view_reads: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.allocations = 0
        self.view_reads = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def snapshot(self) -> "IOStats":
        return IOStats(self.reads, self.writes, self.allocations,
                       self.view_reads)


class DiskManager:
    """Interface for page-granularity storage."""

    def __init__(self) -> None:
        self.stats = IOStats()

    def allocate(self) -> int:
        """Reserve a new page; returns its page id."""
        raise NotImplementedError

    def read_page(self, page_id: int) -> Page:
        raise NotImplementedError

    def read_view(self, page_id: int) -> memoryview | None:
        """A read-only view of the page's bytes, without a copy.

        Returns ``None`` when this manager cannot serve views (the
        caller then falls back to :meth:`read_page`); implementations
        that can — an mmap'd file, an in-memory image — return a
        :class:`memoryview` whose contents are a consistent snapshot
        of the page *at call time*.  Callers must treat the view as
        immutable and should decode promptly rather than hold it.
        """
        return None

    def write_page(self, page: Page) -> None:
        raise NotImplementedError

    @property
    def page_count(self) -> int:
        raise NotImplementedError

    def sync(self) -> None:
        """Force written pages to stable storage (fsync for files).

        Durability barrier for :meth:`repro.api.Database.persist` and
        the write-ahead log's checkpoint: after ``sync()`` returns,
        every completed :meth:`write_page` survives a crash.  In-memory
        disks have nothing to sync.
        """

    def extend_to(self, page_count: int) -> None:
        """Ensure pages ``0 .. page_count-1`` exist (recovery redo).

        Replaying a write-ahead log may reference pages the crashed
        writer allocated but never flushed; redo must be able to
        materialize them as zero pages before writing the logged
        images.
        """
        while self.page_count < page_count:
            self.allocate()

    def close(self) -> None:
        """Release resources; further use is an error for file disks."""


class InMemoryDisk(DiskManager):
    """Disk manager backed by a dict of page images."""

    def __init__(self) -> None:
        super().__init__()
        self._pages: dict[int, bytes] = {}
        self._next_page_id = 0

    def allocate(self) -> int:
        page_id = self._next_page_id
        self._next_page_id += 1
        self._pages[page_id] = bytes(PAGE_SIZE)
        self.stats.allocations += 1
        return page_id

    def read_page(self, page_id: int) -> Page:
        if page_id not in self._pages:
            raise StorageError(f"page {page_id} was never allocated")
        self.stats.reads += 1
        return Page(page_id, bytearray(self._pages[page_id]))

    def read_view(self, page_id: int) -> memoryview | None:
        image = self._pages.get(page_id)
        if image is None:
            raise StorageError(f"page {page_id} was never allocated")
        self.stats.reads += 1
        self.stats.view_reads += 1
        # page images are immutable bytes (write_page swaps the whole
        # object), so the view is a zero-copy consistent snapshot
        return memoryview(image)

    def write_page(self, page: Page) -> None:
        if page.page_id not in self._pages:
            raise StorageError(f"page {page.page_id} was never allocated")
        self.stats.writes += 1
        self._pages[page.page_id] = page.to_bytes()
        page.dirty = False

    @property
    def page_count(self) -> int:
        return self._next_page_id


class FileDisk(DiskManager):
    """Disk manager backed by a single file of fixed-size pages.

    The file is also mapped read-only and :meth:`read_view` serves
    pages as zero-copy ``memoryview`` slices of the mapping; the map
    is rebuilt lazily whenever the file has grown past it.  Buffered
    writes are flushed to the OS before a view is handed out, so a
    view always reflects every completed :meth:`write_page` (the
    mapping shares the kernel page cache with the write path).
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        super().__init__()
        self._path = os.fspath(path)
        exists = os.path.exists(self._path)
        self._file = open(self._path, "r+b" if exists else "w+b")
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % PAGE_SIZE:
            raise StorageError(
                f"{self._path} is not a whole number of pages")
        self._next_page_id = size // PAGE_SIZE
        self._closed = False
        self._map: mmap.mmap | None = None
        self._map_pages = 0
        self._flushed = True

    def allocate(self) -> int:
        self._check_open()
        page_id = self._next_page_id
        self._next_page_id += 1
        self._file.seek(page_id * PAGE_SIZE)
        self._file.write(bytes(PAGE_SIZE))
        self.stats.allocations += 1
        self._flushed = False
        return page_id

    def read_page(self, page_id: int) -> Page:
        self._check_open()
        if not 0 <= page_id < self._next_page_id:
            raise StorageError(f"page {page_id} was never allocated")
        self._file.seek(page_id * PAGE_SIZE)
        data = self._file.read(PAGE_SIZE)
        if len(data) != PAGE_SIZE:
            # a truncated file must never yield an undersized buffer
            # that downstream code would misread as an empty page
            raise StorageError(
                f"short read on page {page_id}: got {len(data)} of "
                f"{PAGE_SIZE} bytes ({self._path} is truncated)")
        self.stats.reads += 1
        return Page(page_id, bytearray(data))

    def write_page(self, page: Page) -> None:
        self._check_open()
        if not 0 <= page.page_id < self._next_page_id:
            raise StorageError(f"page {page.page_id} was never allocated")
        self._file.seek(page.page_id * PAGE_SIZE)
        self._file.write(page.to_bytes())
        self.stats.writes += 1
        self._flushed = False
        page.dirty = False

    def read_view(self, page_id: int) -> memoryview | None:
        self._check_open()
        if not 0 <= page_id < self._next_page_id:
            raise StorageError(f"page {page_id} was never allocated")
        if not self._flushed:
            # push buffered writes into the page cache the map reads
            self._file.flush()
            self._flushed = True
        if page_id >= self._map_pages:
            self._remap()
            if page_id >= self._map_pages:  # pragma: no cover - race guard
                return None
        self.stats.reads += 1
        self.stats.view_reads += 1
        offset = page_id * PAGE_SIZE
        return memoryview(self._map)[offset:offset + PAGE_SIZE]

    def _remap(self) -> None:
        size = os.fstat(self._file.fileno()).st_size
        pages = size // PAGE_SIZE
        if pages == self._map_pages:
            return
        self._drop_map()
        if pages:
            self._map = mmap.mmap(self._file.fileno(),
                                  pages * PAGE_SIZE,
                                  access=mmap.ACCESS_READ)
            self._map_pages = pages

    def _drop_map(self) -> None:
        if self._map is not None:
            # exported memoryviews keep the old map's buffer alive;
            # close() on an exported mmap raises, so just drop the
            # reference and let refcounting reclaim it
            try:
                self._map.close()
            except BufferError:
                pass
            self._map = None
            self._map_pages = 0

    @property
    def page_count(self) -> int:
        return self._next_page_id

    def sync(self) -> None:
        self._check_open()
        self._file.flush()
        self._flushed = True
        os.fsync(self._file.fileno())

    def close(self) -> None:
        if not self._closed:
            self._drop_map()
            self._file.close()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("disk manager is closed")

    def __enter__(self) -> "FileDisk":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
