"""Paged storage substrate ("SHORE-lite").

The paper runs inside Timber, which stores data through the SHORE
storage manager with a 16 MB buffer pool.  This package reproduces the
parts of that stack that the experiments exercise: a page-oriented disk
manager with I/O accounting, an LRU buffer pool, an element store that
packs :class:`~repro.document.NodeRecord` rows into pages, and a tag
index whose posting lists live in pages.  Every physical read/write is
counted, so the execution engine can report faithful I/O-cost shapes
even though the "disk" may be a Python dict.
"""

from repro.storage.disk import DiskManager, InMemoryDisk, FileDisk, IOStats
from repro.storage.pages import Page, PAGE_SIZE
from repro.storage.buffer import BufferPool
from repro.storage.postings import RegionBlock
from repro.storage.store import ElementStore
from repro.storage.tagindex import TagIndex
from repro.storage.catalog import (CATALOG_PAGE_ID, read_catalog,
                                   reserve_catalog_page, write_catalog)

__all__ = [
    "DiskManager",
    "InMemoryDisk",
    "FileDisk",
    "IOStats",
    "Page",
    "PAGE_SIZE",
    "BufferPool",
    "ElementStore",
    "RegionBlock",
    "TagIndex",
    "CATALOG_PAGE_ID",
    "read_catalog",
    "reserve_catalog_page",
    "write_catalog",
]
