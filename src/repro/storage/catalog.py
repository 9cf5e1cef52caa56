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

Only a checkpoint writes the full catalog.  A commit logs a *catalog
delta* (:func:`catalog_delta`) — what that commit changed of the
directory — and recovery folds the committed deltas onto the page-0
catalog in commit order (:func:`fold_catalog`), so a commit's log
record is as large as its change, not as the database or its history.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import StorageError, WalFormatError
from repro.storage.buffer import BufferPool
from repro.storage.pages import Page

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.store import ElementStore
    from repro.storage.tagindex import TagIndex

CATALOG_PAGE_ID = 0
_CHUNK_BYTES = 4000
#: the fields of a catalog delta, all of them always present
_DELTA_KEYS = frozenset({"tags", "store_pages", "node_count"})
#: the store's tombstones, which catalogs and deltas written before the
#: tag index decided liveness also carry; readers ignore them
_RETIRED_KEYS = frozenset({"deleted_rids"})


def reserve_catalog_page(pool: BufferPool) -> None:
    """Allocate page 0 as the catalog anchor (fresh databases only)."""
    if pool.disk.page_count != 0:
        raise StorageError(
            "catalog page can only be reserved on an empty disk")
    page = pool.new_page()
    pool.unpin(page.page_id, dirty=True)
    pool.flush()


def _node_count(index: "TagIndex") -> int:
    """Live nodes: every node has exactly one posting, under its tag."""
    return sum(index.counts().values())


def catalog_payload(name: str, store: "ElementStore",
                    index: "TagIndex") -> dict[str, Any]:
    """The full directory state the page-0 catalog persists, for one
    element *store* / tag *index* pair; :func:`fold_catalog` returns
    the same shape."""
    return {
        "name": name,
        "store_pages": store.page_ids,
        "index_chains": index.chains(),
        "index_counts": index.counts(),
        "node_count": _node_count(index),
    }


def catalog_delta(index: "TagIndex", tags: Iterable[str],
                  appended_pages: list[int]) -> dict[str, Any]:
    """What one commit changed of the directory (its WAL ``CATALOG``
    record).

    ``tags`` maps each touched tag to its new ``[chain, count]``, or to
    ``None`` when the commit removed the tag's last posting;
    ``store_pages`` lists the element-store pages the commit appended,
    and ``node_count`` is the new live node count.  Every field folds
    idempotently (assign, append-if-absent), so replaying a delta over
    a catalog that already holds it changes nothing.
    """
    return {
        "tags": {tag: ([index.chain(tag), index.count(tag)]
                       if index.count(tag) else None)
                 for tag in tags},
        "store_pages": appended_pages,
        "node_count": _node_count(index),
    }


def fold_catalog(catalog: dict[str, Any],
                 deltas: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """The full catalog after *deltas* (in commit order) on *catalog*.

    Raises :class:`~repro.errors.WalFormatError` on a record that is not
    a catalog delta — a log written before commits logged deltas holds
    full catalogs, which this fold would misread.  A retired key
    (:data:`_RETIRED_KEYS`) is dropped wherever it appears.
    """
    chains = dict(catalog["index_chains"])
    counts = dict(catalog["index_counts"])
    pages = list(catalog["store_pages"])
    known = set(pages)
    node_count = catalog["node_count"]
    for delta in deltas:
        if delta.keys() - _RETIRED_KEYS != _DELTA_KEYS:
            raise WalFormatError(
                f"a CATALOG record holds {sorted(delta)}, not a catalog "
                "delta: checkpoint this log with the version that wrote "
                "it")
        for tag, entry in delta["tags"].items():
            if entry is None:
                chains.pop(tag, None)
                counts.pop(tag, None)
            else:
                chains[tag], counts[tag] = entry
        for page_id in delta["store_pages"]:
            if page_id not in known:
                known.add(page_id)
                pages.append(page_id)
        node_count = delta["node_count"]
    return {
        "name": catalog["name"],
        "store_pages": pages,
        "index_chains": chains,
        "index_counts": counts,
        "node_count": node_count,
    }


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
