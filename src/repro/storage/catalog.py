"""Database catalog: bootstrapping a database back from its pages.

Everything the storage layer keeps in memory — which pages belong to
the element store, which page chains hold each tag's postings — must
survive a restart for a file-backed database to be reopenable without
the original XML.  The catalog serializes that directory as JSON,
chunks it into records across a chain of catalog pages, and anchors
the chain at **page 0**, which :class:`repro.api.Database` reserves at
creation time.

Layout::

    page 0, record 0:   header JSON {"chunk_pages": [...], "chunks": n}
    chunk pages:        one record per chunk of the payload JSON

Re-persisting writes a fresh header into a rewritten page 0 and
allocates new chunk pages (old ones become garbage — a real system
would free-list them; this one documents the leak instead).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.pages import Page

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.store import ElementStore
    from repro.storage.tagindex import TagIndex

CATALOG_PAGE_ID = 0
_CHUNK_BYTES = 4000


def reserve_catalog_page(pool: BufferPool) -> None:
    """Allocate page 0 as the catalog anchor (fresh databases only)."""
    if pool.disk.page_count != 0:
        raise StorageError(
            "catalog page can only be reserved on an empty disk")
    page = pool.new_page()
    pool.unpin(page.page_id, dirty=True)
    pool.flush()


def catalog_payload(name: str, store: "ElementStore",
                    index: "TagIndex") -> dict[str, Any]:
    """The directory state both the page-0 catalog and a commit's WAL
    ``CATALOG`` record persist, for one element *store* / tag *index*
    pair — built here only, so the two copies cannot drift."""
    payload = {
        "name": name,
        "store_pages": store.page_ids,
        "index_chains": index.chains(),
        "index_counts": index.counts(),
        "node_count": store.node_count,
    }
    deleted = store.deleted_rids()
    if deleted:
        payload["deleted_rids"] = deleted
    return payload


def write_catalog(pool: BufferPool, payload: dict[str, Any]) -> None:
    """Serialize *payload* into catalog pages anchored at page 0."""
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    chunks = [data[offset:offset + _CHUNK_BYTES]
              for offset in range(0, len(data), _CHUNK_BYTES)] or [b""]
    chunk_pages: list[int] = []
    for chunk in chunks:
        page = pool.new_page()
        page.insert(chunk)
        chunk_pages.append(page.page_id)
        pool.unpin(page.page_id, dirty=True)
    header = json.dumps({"chunk_pages": chunk_pages,
                         "chunks": len(chunks)}).encode("utf-8")
    # page 0 is rewritten wholesale: build a fresh image and write it
    # through the disk directly so stale catalog records disappear.
    anchor = Page(CATALOG_PAGE_ID)
    anchor.insert(header)
    pool.flush()
    pool.clear()
    pool.disk.write_page(anchor)


def read_catalog(pool: BufferPool) -> dict[str, Any]:
    """Load the catalog payload anchored at page 0."""
    anchor = pool.fetch(CATALOG_PAGE_ID)
    try:
        if anchor.slot_count == 0:
            raise StorageError("disk holds no catalog (page 0 empty)")
        header = json.loads(anchor.record(0).decode("utf-8"))
    finally:
        pool.unpin(CATALOG_PAGE_ID)
    parts: list[bytes] = []
    for page_id in header["chunk_pages"]:
        page = pool.fetch(page_id)
        try:
            parts.append(page.record(0))
        finally:
            pool.unpin(page_id)
    data = b"".join(parts)
    if not data:
        raise StorageError("catalog payload is empty")
    return json.loads(data.decode("utf-8"))
