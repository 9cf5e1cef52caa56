"""Unit tests for the element store."""

import pytest

from repro.errors import StorageError
from repro.document.node import NodeRecord, Region
from repro.document.parser import parse_xml
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from repro.storage.store import ElementStore, decode_node, encode_node


@pytest.fixture
def store():
    return ElementStore(BufferPool(InMemoryDisk(), capacity=8))


def sample_node(node_id=0, **overrides):
    defaults = dict(node_id=node_id, tag="manager",
                    region=Region(node_id, node_id + 3, 1),
                    parent_id=node_id - 1, text="Ada",
                    attributes={"id": "m1", "grade": "7"})
    defaults.update(overrides)
    return NodeRecord(**defaults)


class TestEncoding:
    def test_roundtrip_full(self):
        node = sample_node()
        assert decode_node(encode_node(node)) == node

    def test_roundtrip_minimal(self):
        node = NodeRecord(0, "a", Region(0, 0, 0))
        assert decode_node(encode_node(node)) == node

    def test_roundtrip_unicode(self):
        node = sample_node(text="Ünïcødé — ✓",
                           attributes={"k": "väl"})
        assert decode_node(encode_node(node)) == node

    def test_oversized_record_rejected(self):
        node = sample_node(text="x" * 5000)
        with pytest.raises(StorageError, match="too large"):
            encode_node(node)


class TestElementStore:
    def test_store_document_and_scan(self, store, small_document):
        store.store_document(small_document)
        scanned = list(store.scan())
        assert scanned == list(small_document.nodes)

    def test_spills_to_multiple_pages(self, store):
        document = parse_xml(
            "<r>" + "".join(f'<n k="{"x" * 200}">{("t" * 200)}</n>'
                            for _ in range(60)) + "</r>")
        store.store_document(document)
        assert store.page_count > 1
        assert list(store.scan()) == list(document.nodes)
