"""Unit tests for the tag index."""

import pytest

from repro.errors import StorageError
from repro.document.parser import parse_xml
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from repro.storage.tagindex import TagIndex


@pytest.fixture
def index():
    return TagIndex(BufferPool(InMemoryDisk(), capacity=16))


class TestTagIndex:
    def test_index_document(self, index, small_document):
        index.index_document(small_document)
        assert index.count("manager") == 3
        assert index.count("employee") == 5
        assert index.count("zzz") == 0

    def test_postings_in_document_order(self, index, small_document):
        index.index_document(small_document)
        postings = index.regions("employee")
        assert [r.start for r in postings] == sorted(
            r.start for r in postings)
        expected = [node.region for node in
                    small_document.nodes_with_tag("employee")]
        assert postings == expected

    def test_postings_carry_full_region(self, index, small_document):
        index.index_document(small_document)
        by_start = {node.start: node for node in small_document}
        for region in index.scan("manager"):
            node = by_start[region.start]
            assert region == node.region

    def test_index_document_refuses_a_built_index(self, index,
                                                  small_document):
        """An index is packed once; later postings are spliced."""
        index.index_document(small_document)
        pages = index.page_count()
        with pytest.raises(StorageError, match="already built"):
            index.index_document(small_document)
        assert index.page_count() == pages
        assert index.count("manager") == 3

    def test_tags_listing(self, index, small_document):
        index.index_document(small_document)
        assert "manager" in index.tags()
        assert index.tags() == sorted(index.tags())

    def test_large_posting_list_spans_pages(self, index):
        document = parse_xml(
            "<r>" + "<n/>" * 3000 + "</r>")
        index.index_document(document)
        assert index.count("n") == 3000
        assert index.page_count("n") > 1
        postings = index.regions("n")
        assert len(postings) == 3000
        assert [r.start for r in postings] == list(range(1, 3001))

    def test_scan_missing_tag_is_empty(self, index):
        assert list(index.scan("nothing")) == []

    def test_page_count_total(self, index, small_document):
        index.index_document(small_document)
        assert index.page_count() == sum(
            index.page_count(tag) for tag in index.tags())
