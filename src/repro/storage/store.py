"""Element store: packs document nodes into slotted pages.

Every :class:`~repro.document.NodeRecord` is serialized into a byte
record and appended to a chain of pages, in write order.  The store
keeps no directory: which record of a node id is live is the tag
index's to say (it holds exactly the live ids), and a later record of
an id supersedes every earlier one — :meth:`repro.api.Database.open`
keeps, per id the index holds, the last record the chain has.  Queries
never read the store; it is what a database is reopened from.

Record encoding (little-endian)::

    start   uint32 | end uint32 | level uint16 | parent int32
    tag_len uint16 | text_len uint16 | attr_count uint16
    tag bytes | text bytes | (key_len u16, key, val_len u16, val)*
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.errors import StorageError
from repro.document.document import XmlDocument
from repro.document.node import NodeRecord, Region
from repro.storage.buffer import BufferPool
from repro.storage.pages import PAGE_SIZE

_FIXED = struct.Struct("<IIHiHHH")
_U16 = struct.Struct("<H")


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


class ElementStore:
    """Append-only chain of node records in buffer-pooled pages.

    A delete or a change writes nothing here beyond the new records;
    superseded records stay on their pages as garbage (see the module
    docstring for which record is live).
    """

    def __init__(self, pool: BufferPool) -> None:
        self.pool = pool
        self._current_page_id: int | None = None
        self._page_ids: list[int] = []

    def store_document(self, document: XmlDocument) -> None:
        """Append every node of *document*, in document order."""
        for node in document:
            self.store_node(node)
        self.pool.flush()

    def store_node(self, node: NodeRecord) -> None:
        payload = encode_node(node)
        page = self._writable_page(len(payload))
        page.insert(payload)
        self.pool.unpin(page.page_id, dirty=True)

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

    def scan(self) -> Iterator[NodeRecord]:
        """Every stored record in write order, superseded ones too."""
        for page_id in self._page_ids:
            page = self.pool.fetch(page_id)
            try:
                payloads = page.records()
            finally:
                self.pool.unpin(page_id)
            yield from map(decode_node, payloads)

    @property
    def page_count(self) -> int:
        return len(self._page_ids)

    @property
    def page_ids(self) -> list[int]:
        """The store's page chain (persisted in the catalog)."""
        return list(self._page_ids)

    # -- mutation (transactional write path) --------------------------------

    def clone_for_write(self) -> "ElementStore":
        """A copy-on-write clone for a transaction to append to.

        The clone shares every data page with this store and copies
        only the page list.  Its write cursor is unset, so the first
        append allocates a *fresh* page — a published page is never
        touched, which is what keeps in-flight readers of this store
        consistent while the clone commits.
        """
        return ElementStore.attach(self.pool, self._page_ids)

    @classmethod
    def attach(cls, pool: BufferPool,
               page_ids: list[int]) -> "ElementStore":
        """A store over an existing page chain (database reopen, or a
        transaction's clone); reads no page."""
        store = cls(pool)
        store._page_ids = list(page_ids)
        return store
