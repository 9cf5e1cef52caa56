"""Element store: packs document nodes into slotted pages.

Every :class:`~repro.document.NodeRecord` is serialized into a byte
record and appended to a chain of pages.  The store keeps an in-memory
directory from node id to record id (page, slot) — the moral equivalent
of a catalog — while all payload bytes live in pages and are fetched
through the buffer pool, so record access participates in I/O
accounting.

Record encoding (little-endian)::

    start   uint32 | end uint32 | level uint16 | parent int32
    tag_len uint16 | text_len uint16 | attr_count uint16
    tag bytes | text bytes | (key_len u16, key, val_len u16, val)*
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import StorageError
from repro.document.document import XmlDocument
from repro.document.node import NodeRecord, Region
from repro.storage.buffer import BufferPool
from repro.storage.pages import PAGE_SIZE

_FIXED = struct.Struct("<IIHiHHH")
_U16 = struct.Struct("<H")


@dataclass(frozen=True, slots=True)
class StoredNode:
    """Record id of a stored node: which page and slot it lives in."""

    page_id: int
    slot: int


def encode_node(node: NodeRecord) -> bytes:
    """Serialize a node record to bytes."""
    tag = node.tag.encode("utf-8")
    text = node.text.encode("utf-8")
    parts = [_FIXED.pack(node.start, node.end, node.level, node.parent_id,
                         len(tag), len(text), len(node.attributes)),
             tag, text]
    for key, value in node.attributes.items():
        key_bytes = key.encode("utf-8")
        value_bytes = value.encode("utf-8")
        parts.append(_U16.pack(len(key_bytes)))
        parts.append(key_bytes)
        parts.append(_U16.pack(len(value_bytes)))
        parts.append(value_bytes)
    payload = b"".join(parts)
    if len(payload) > PAGE_SIZE // 2:
        raise StorageError(
            f"node record too large ({len(payload)} bytes)")
    return payload


def decode_node(payload: bytes) -> NodeRecord:
    """Inverse of :func:`encode_node`."""
    start, end, level, parent_id, tag_len, text_len, attr_count = (
        _FIXED.unpack_from(payload, 0))
    offset = _FIXED.size
    tag = payload[offset:offset + tag_len].decode("utf-8")
    offset += tag_len
    text = payload[offset:offset + text_len].decode("utf-8")
    offset += text_len
    attributes: dict[str, str] = {}
    for _ in range(attr_count):
        (key_len,) = _U16.unpack_from(payload, offset)
        offset += _U16.size
        key = payload[offset:offset + key_len].decode("utf-8")
        offset += key_len
        (value_len,) = _U16.unpack_from(payload, offset)
        offset += _U16.size
        value = payload[offset:offset + value_len].decode("utf-8")
        offset += value_len
        attributes[key] = value
    return NodeRecord(node_id=start, tag=tag,
                      region=Region(start, end, level),
                      parent_id=parent_id, text=text, attributes=attributes)


class NodeReader:
    """Page-batched node access: one pool round trip per page.

    Predicate-heavy index scans look up element payloads for runs of
    node ids that mostly share a page; a reader keeps the last page's
    records so consecutive hits skip the buffer pool's fetch/unpin
    cycle entirely.  The memo is one page of payload bytes — per-scan
    state, not a cache — so create one reader per scan and drop it.
    """

    __slots__ = ("_store", "_page_id", "_payloads")

    def __init__(self, store: "ElementStore") -> None:
        self._store = store
        self._page_id: int | None = None
        self._payloads: list[bytes] = []

    def node(self, node_id: int) -> NodeRecord:
        """Fetch and decode one node, reusing the last page read."""
        rid = self._store.rid_of(node_id)
        if rid.page_id != self._page_id:
            pool = self._store.pool
            page = pool.fetch(rid.page_id)
            try:
                self._payloads = page.records()
            finally:
                pool.unpin(rid.page_id)
            self._page_id = rid.page_id
        return decode_node(self._payloads[rid.slot])


class ElementStore:
    """Append-only store of node records in buffer-pooled pages.

    Deletions are logical: the record's bytes stay on their page and a
    tombstone (its record id) joins :attr:`_deleted_rids`, persisted in
    the catalog so a reopened store skips dead records.  Pages are
    reclaimed only when a copy-on-write rewrite happens to repack them.
    """

    def __init__(self, pool: BufferPool) -> None:
        self.pool = pool
        self._directory: dict[int, StoredNode] = {}
        self._current_page_id: int | None = None
        self._page_ids: list[int] = []
        self._deleted_rids: set[StoredNode] = set()
        self.node_count = 0

    def store_document(self, document: XmlDocument) -> None:
        """Append every node of *document*, in document order."""
        for node in document:
            self.store_node(node)
        self.pool.flush()

    def store_node(self, node: NodeRecord) -> StoredNode:
        if node.node_id in self._directory:
            raise StorageError(f"node {node.node_id} already stored")
        payload = encode_node(node)
        page = self._writable_page(len(payload))
        slot = page.insert(payload)
        self.pool.unpin(page.page_id, dirty=True)
        rid = StoredNode(page.page_id, slot)
        self._directory[node.node_id] = rid
        self.node_count += 1
        return rid

    def _writable_page(self, needed: int):
        if self._current_page_id is not None:
            page = self.pool.fetch(self._current_page_id)
            if page.free_space >= needed:
                return page
            self.pool.unpin(page.page_id)
        page = self.pool.new_page()
        self._current_page_id = page.page_id
        self._page_ids.append(page.page_id)
        return page

    def rid_of(self, node_id: int) -> StoredNode:
        rid = self._directory.get(node_id)
        if rid is None:
            raise StorageError(f"node {node_id} is not stored")
        return rid

    def fetch_node(self, node_id: int) -> NodeRecord:
        """Fetch and decode one node by id through the buffer pool."""
        rid = self.rid_of(node_id)
        page = self.pool.fetch(rid.page_id)
        try:
            return decode_node(page.record(rid.slot))
        finally:
            self.pool.unpin(rid.page_id)

    def reader(self) -> NodeReader:
        """A per-scan :class:`NodeReader` over this store."""
        return NodeReader(self)

    def scan(self) -> Iterator[NodeRecord]:
        """Iterate all live stored nodes in insertion order.

        Nodes removed via :meth:`remove_nodes` are skipped; note that
        after subtree mutations insertion order is no longer document
        order — sort by ``start`` when rebuilding a document.
        """
        for rid, node in self._scan_with_rids():
            if rid not in self._deleted_rids:
                yield node

    def _scan_with_rids(self) -> Iterator[tuple[StoredNode, NodeRecord]]:
        for page_id in self._page_ids:
            page = self.pool.fetch(page_id)
            try:
                payloads = page.records()
            finally:
                self.pool.unpin(page_id)
            for slot, payload in enumerate(payloads):
                yield StoredNode(page_id, slot), decode_node(payload)

    @property
    def page_count(self) -> int:
        return len(self._page_ids)

    @property
    def page_ids(self) -> list[int]:
        """The store's page chain (persisted in the catalog)."""
        return list(self._page_ids)

    # -- mutation (transactional write path) --------------------------------

    def clone_for_write(self) -> "ElementStore":
        """A copy-on-write clone for a transaction to mutate.

        The clone shares every data page with this store but keeps its
        own directory, page list, and tombstone set.  Its write cursor
        is reset, so the first append allocates a *fresh* page — a
        published page is never touched, which is what keeps in-flight
        readers of this store consistent while the clone commits.
        """
        clone = ElementStore(self.pool)
        clone._directory = dict(self._directory)
        clone._page_ids = list(self._page_ids)
        clone._deleted_rids = set(self._deleted_rids)
        clone.node_count = self.node_count
        clone._current_page_id = None
        return clone

    def remove_nodes(self, node_ids: Iterable[int]) -> list[list[int]]:
        """Tombstone *node_ids*; their page bytes remain as garbage.

        Returns the new tombstones as ``[page, slot]`` pairs (a commit's
        catalog delta), in removal order."""
        tombstones = []
        for node_id in node_ids:
            rid = self._directory.pop(node_id, None)
            if rid is None:
                raise StorageError(
                    f"cannot remove node {node_id}: not stored")
            self._deleted_rids.add(rid)
            tombstones.append([rid.page_id, rid.slot])
            self.node_count -= 1
        return tombstones

    def deleted_rids(self) -> list[list[int]]:
        """Every tombstoned record id as a ``[page, slot]`` pair, sorted
        (the full catalog a checkpoint writes)."""
        return sorted([rid.page_id, rid.slot]
                      for rid in self._deleted_rids)

    @classmethod
    def attach(cls, pool: BufferPool, page_ids: list[int],
               deleted: Iterable[Iterable[int]] = ()) -> "ElementStore":
        """Rebuild a store from its page chain (database reopen).

        The record directory is reconstructed with one scan over the
        chain; payload bytes stay on their pages.  *deleted* lists the
        tombstoned ``[page, slot]`` record ids from the catalog.
        """
        store = cls(pool)
        store._page_ids = list(page_ids)
        store._current_page_id = page_ids[-1] if page_ids else None
        store._deleted_rids = {StoredNode(page_id, slot)
                               for page_id, slot in deleted}
        for rid, node in store._scan_with_rids():
            if rid in store._deleted_rids:
                continue
            store._directory[node.node_id] = rid
            store.node_count += 1
        return store
