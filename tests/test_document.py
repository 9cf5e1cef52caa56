"""Unit tests for XmlDocument navigation and validation.

A committed transaction's document is derived from its predecessor
(:meth:`XmlDocument.derive`): it must equal a full rebuild of the same
node table, share what the delta leaves alone, and reject every
invalid delta that the full constructor rejects.
"""

import pytest

from repro.errors import DocumentError
from repro.document.document import XmlDocument, merge_documents
from repro.document.node import NodeRecord, Region
from repro.document.parser import parse_xml


@pytest.fixture
def document():
    return parse_xml("<a><b><c/><d/></b><e><f/></e></a>")


class TestNavigation:
    def test_root(self, document):
        assert document.root.tag == "a"

    def test_node_lookup(self, document):
        assert document.node(0).tag == "a"
        assert document.node(3).tag == "d"
        with pytest.raises(DocumentError):
            document.node(99)

    def test_parent_and_children(self, document):
        b = document.node(1)
        assert document.parent(b).tag == "a"
        assert [child.tag for child in document.children(b)] == ["c", "d"]
        assert document.parent(document.root) is None

    def test_descendants_in_document_order(self, document):
        b = document.node(1)
        assert [node.tag for node in document.descendants(b)] == ["c", "d"]
        assert [node.tag for node in document.descendants(document.root)
                ] == ["b", "c", "d", "e", "f"]

    def test_subtree_includes_self(self, document):
        e = document.node(4)
        assert [node.tag for node in document.subtree(e)] == ["e", "f"]

    def test_ancestors_nearest_first(self, document):
        c = document.node(2)
        assert [node.tag for node in document.ancestors(c)] == ["b", "a"]

    def test_tags_and_counts(self, document):
        assert document.tags() == ["a", "b", "c", "d", "e", "f"]
        assert document.tag_count("c") == 1
        assert document.tag_count("zzz") == 0
        assert document.nodes_with_tag("zzz") == []

    def test_depth_and_histogram(self, document):
        assert document.depth() == 2
        assert document.tag_histogram()["a"] == 1


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(DocumentError, match="at least one node"):
            XmlDocument([])

    def test_unsorted_rejected(self):
        nodes = [
            NodeRecord(1, "b", Region(1, 1, 1), parent_id=0),
            NodeRecord(0, "a", Region(0, 1, 0)),
        ]
        with pytest.raises(DocumentError, match="sorted"):
            XmlDocument(nodes)

    def test_missing_parent_rejected(self):
        nodes = [
            NodeRecord(0, "a", Region(0, 1, 0)),
            NodeRecord(1, "b", Region(1, 1, 1), parent_id=7),
        ]
        with pytest.raises(DocumentError, match="missing parent"):
            XmlDocument(nodes)

    def test_bad_nesting_rejected(self):
        nodes = [
            NodeRecord(0, "a", Region(0, 0, 0)),
            NodeRecord(1, "b", Region(1, 1, 1), parent_id=0),
        ]
        with pytest.raises(DocumentError, match="not nested"):
            XmlDocument(nodes)

    def test_root_must_be_first(self):
        nodes = [
            NodeRecord(0, "a", Region(0, 1, 1), parent_id=-1),
            NodeRecord(1, "b", Region(1, 1, 2), parent_id=0),
        ]
        with pytest.raises(DocumentError, match="root"):
            XmlDocument(nodes)


class TestMerge:
    def test_merge_two_documents(self):
        first = parse_xml("<x><y/></x>")
        second = parse_xml("<p><q/><r/></p>")
        merged = merge_documents([first, second], root_tag="all")
        assert [node.tag for node in merged] == [
            "all", "x", "y", "p", "q", "r"]
        assert merged.node(3).parent_id == 0
        assert merged.node(4).level == 2

    def test_merge_empty_rejected(self):
        with pytest.raises(DocumentError):
            merge_documents([])

    def test_merge_preserves_structure_queries(self):
        base = parse_xml("<x><y><z/></y></x>")
        merged = merge_documents([base, base, base])
        assert merged.tag_count("z") == 3
        for z in merged.nodes_with_tag("z"):
            chain = [node.tag for node in merged.ancestors(z)]
            assert chain == ["y", "x", "collection"]


def assert_rebuilds_alike(document: XmlDocument) -> None:
    """*document* equals a full rebuild of its own node table: the
    node tuple, the starts, each tag's node ids and every children
    list."""
    rebuilt = XmlDocument(list(document), name=document.name)
    assert document._nodes == rebuilt._nodes
    assert document._starts == rebuilt._starts
    assert ({tag: [node.node_id for node in nodes]
             for tag, nodes in document._by_tag.items()}
            == {tag: [node.node_id for node in nodes]
                for tag, nodes in rebuilt._by_tag.items()})
    assert document._children == rebuilt._children


def _placed(document, added, removed):
    """The node table a delta describes, in the order derive places
    it: survivors and added records by their id, base first on a tie."""
    keyed = [(node.node_id, node) for node in document
             if node.node_id not in removed]
    keyed += list(added.items())
    return [node for _, node in sorted(keyed, key=lambda pair: pair[0])]


#: a(0,5,0) b(1,3,1) c(2,2,2) d(3,3,2) e(4,5,1) f(5,5,2)
INVALID_DELTAS = {
    "orphaned child of a removed node":
        ({}, {1}, "missing parent"),
    "added node under a missing parent":
        ({6: NodeRecord(6, "g", Region(6, 6, 2), parent_id=9)}, set(),
         "missing parent"),
    "added node not nested in its parent":
        ({6: NodeRecord(6, "g", Region(6, 6, 2), parent_id=4)}, set(),
         "not nested"),
    "changed node whose surviving children no longer nest":
        ({1: NodeRecord(1, "b", Region(1, 2, 1), parent_id=0)}, {1},
         "not nested"),
    "non-root first node":
        ({}, {0}, "root"),
    "root changed into a child":
        ({0: NodeRecord(0, "a", Region(0, 5, 1))}, {0}, "root"),
    "duplicate starts":
        ({4: NodeRecord(4, "g", Region(4, 4, 2), parent_id=1)}, set(),
         "unique"),
    "unsorted starts":
        ({6: NodeRecord(2, "g", Region(2, 2, 2), parent_id=1)}, {2},
         "sorted"),
    "every node removed":
        ({}, {0, 1, 2, 3, 4, 5}, "at least one node"),
}


class TestDerive:
    @pytest.mark.parametrize("case", sorted(INVALID_DELTAS))
    def test_invalid_delta_rejected_like_a_full_rebuild(self, document,
                                                        case):
        added, removed, message = INVALID_DELTAS[case]
        with pytest.raises(DocumentError, match=message):
            XmlDocument(_placed(document, added, removed))
        with pytest.raises(DocumentError, match=message):
            document.derive(added, removed)

    def test_a_level_change_rechecks_the_children(self):
        """b moves up a level under a new parent and keeps its end; its
        child c is then one level too deep.  Only a node that keeps its
        level and end may skip its children."""
        base = XmlDocument([
            NodeRecord(0, "a", Region(0, 9, 0)),
            NodeRecord(1, "x", Region(1, 9, 1), parent_id=0),
            NodeRecord(2, "b", Region(2, 9, 2), parent_id=1),
            NodeRecord(3, "c", Region(3, 3, 3), parent_id=2),
        ])
        added = {2: NodeRecord(2, "b", Region(2, 9, 1), parent_id=0)}
        with pytest.raises(DocumentError, match="not nested"):
            XmlDocument(_placed(base, added, {2}))
        with pytest.raises(DocumentError, match="not nested"):
            base.derive(added, {2})

    def test_removing_an_absent_node_rejected(self, document):
        with pytest.raises(DocumentError, match="no node with id 9"):
            document.derive({}, {9})

    def test_subtree_delete_equals_a_rebuild_and_shares_the_rest(
            self, document):
        before = document.nodes
        derived = document.derive({}, {4, 5}, name="after")
        assert [node.tag for node in derived] == ["a", "b", "c", "d"]
        assert derived.name == "after"
        assert_rebuilds_alike(derived)
        # untouched lists are the predecessor's; touched ones are new
        assert derived._by_tag["c"] is document._by_tag["c"]
        assert derived._children[1] is document._children[1]
        assert derived._children[0] is not document._children[0]
        assert document.nodes == before
        assert [node.tag for node in document.children(document.root)
                ] == ["b", "e"]
        assert document.tag_count("f") == 1

    def test_insert_with_a_growing_root_equals_a_rebuild(self, document):
        root = document.root
        added = {
            0: NodeRecord(0, "a", Region(0, 9, 0)),
            6: NodeRecord(6, "g", Region(6, 8, 1), parent_id=0),
            7: NodeRecord(7, "c", Region(7, 7, 2), parent_id=6),
            8: NodeRecord(8, "new", Region(8, 8, 2), parent_id=6),
        }
        derived = document.derive(added, {0})
        assert derived.root.end == 9 and root.end == 5
        assert [node.node_id for node in derived.nodes_with_tag("c")
                ] == [2, 7]
        assert derived.tag_count("new") == 1
        assert_rebuilds_alike(derived)

    def test_relabelled_subtree_equals_a_rebuild(self, document):
        """A relabel removes a subtree's descendants and re-adds them
        under new ids; a widened node keeps every child it held."""
        added = {
            0: NodeRecord(0, "a", Region(0, 20, 0)),
            4: NodeRecord(4, "e", Region(4, 20, 1), parent_id=0),
            10: NodeRecord(10, "f", Region(10, 10, 2), parent_id=4),
            15: NodeRecord(15, "f", Region(15, 15, 2), parent_id=4),
        }
        derived = document.derive(added, {0, 4, 5})
        assert [node.node_id for node in derived] == [0, 1, 2, 3, 4, 10,
                                                      15]
        assert_rebuilds_alike(derived)
