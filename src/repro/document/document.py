"""In-memory XML document backed by a node table.

An :class:`XmlDocument` is an immutable array of :class:`NodeRecord`
sorted by pre-order start position (document order), plus secondary
structures for navigation: a tag partition and a children adjacency
list.  Documents are produced by :class:`repro.document.DocumentBuilder`
or :func:`repro.document.parse_xml`, never mutated afterwards.  A
committed transaction's document comes from :meth:`XmlDocument.derive`
over its predecessor and shares every list the delta leaves alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import chain, islice
from operator import attrgetter, eq, lt
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from repro.errors import DocumentError, PostingMismatchError
from repro.document.node import NodeRecord, Region

_node_id = attrgetter("node_id")
_parent_id = attrgetter("parent_id")
_UNSORTED = "node table must be sorted by start position"
_DUPLICATE = "start positions must be unique"


def _check_order(starts: Sequence[int]) -> None:
    """Starts strictly increasing: sorted and unique (one C pass)."""
    if not all(map(lt, starts, islice(starts, 1, None))):
        raise DocumentError(
            _UNSORTED if list(starts) != sorted(starts) else _DUPLICATE)


def _check_root(root: NodeRecord) -> None:
    if root.parent_id != -1 or root.level != 0:
        raise DocumentError("first node must be the document root")


def _check_parent(node: NodeRecord, parent: NodeRecord | None) -> None:
    if parent is None:
        raise DocumentError(
            f"node {node.node_id} references missing parent "
            f"{node.parent_id}")
    if not parent.region.is_parent_of(node.region):
        raise DocumentError(
            f"node {node.node_id} region is not nested under its "
            f"parent {node.parent_id}")


def _owned(table: dict, key, copied: set) -> list:
    """``table[key]`` as a list the table's document owns: copied from
    the predecessor's (shared) list on first touch."""
    if key not in copied:
        copied.add(key)
        table[key] = list(table.get(key, ()))
    return table[key]


class XmlDocument:
    """A parsed XML document as a region-encoded node table."""

    def __init__(self, nodes: Sequence[NodeRecord], name: str = "doc") -> None:
        self._nodes: tuple[NodeRecord, ...] = tuple(nodes)
        self.name = name
        self._validate()
        self._by_tag: dict[str, list[NodeRecord]] = {}
        self._children: dict[int, list[int]] = {}
        for node in self._nodes:
            self._by_tag.setdefault(node.tag, []).append(node)
            if node.parent_id >= 0:
                self._children.setdefault(node.parent_id, []).append(
                    node.node_id)
        self._starts = [node.start for node in self._nodes]
        self._columns: dict[str, tuple[Sequence[int],
                                       Sequence[NodeRecord],
                                       list[int]]] = {}
        self._region_table: list[Region | None] | None = None

    def _validate(self) -> None:
        if not self._nodes:
            raise DocumentError("a document must contain at least one node")
        starts = [node.start for node in self._nodes]
        if starts != sorted(starts):
            raise DocumentError(_UNSORTED)
        if len(set(starts)) != len(starts):
            raise DocumentError(_DUPLICATE)
        _check_root(self._nodes[0])
        by_id = {node.node_id: node for node in self._nodes}
        for node in self._nodes[1:]:
            _check_parent(node, by_id.get(node.parent_id))

    def derive(self, added: Mapping[int, NodeRecord],
               removed: Collection[int],
               name: str | None = None) -> "XmlDocument":
        """This document with the nodes *removed* (ids) taken out and
        *added* (records keyed by node id) put in; a changed node is in
        both.  ``self`` is never mutated.

        The node table and starts are C-speed slice copies between the
        touched positions.  Only what a delta can break is validated,
        which is every invariant :meth:`_validate` checks:

        * starts strictly increasing, over the whole table at C speed;
        * the first node is a root;
        * every added node nests under its parent;
        * every surviving child of a removed or changed node nests
          under its parent.  A changed node that keeps its level and
          does not shrink its end (its start is its id) still holds
          each child it held, so its children are skipped.

        Any other node and its parent are both unchanged records that
        nested before.  Per-tag and children lists are re-spliced by
        bisect where the delta touches them; every other list is shared
        with this document.
        """
        base_starts = self._starts
        base_nodes = self._nodes
        gone = [self.node(node_id) for node_id in sorted(removed)]
        node_runs: list[Sequence[NodeRecord]] = []
        start_runs: list[Sequence[int]] = []
        low = 0
        for key in sorted({*removed, *added}):
            at = bisect_left(base_starts, key, low)
            node_runs.append(base_nodes[low:at])
            start_runs.append(base_starts[low:at])
            if key in removed:
                at += 1
            record = added.get(key)
            if record is not None:
                node_runs.append((record,))
                start_runs.append((record.start,))
            low = at
        node_runs.append(base_nodes[low:])
        start_runs.append(base_starts[low:])
        document = XmlDocument.__new__(XmlDocument)
        document.name = self.name if name is None else name
        document._nodes = tuple(chain.from_iterable(node_runs))
        document._starts = starts = list(chain.from_iterable(start_runs))
        if not starts:
            raise DocumentError("a document must contain at least one node")
        _check_order(starts)
        _check_root(document._nodes[0])
        root_id = starts[0]
        for record in added.values():
            if record.node_id != root_id:
                _check_parent(record, document.get(record.parent_id))
        for old in gone:
            new = added.get(old.node_id)
            if (new is not None and new.level == old.level
                    and new.end >= old.end):
                continue
            for child_id in self._children.get(old.node_id, ()):
                if child_id not in removed:
                    child = document.get(child_id)
                    _check_parent(child,
                                  document.get(child.parent_id))
        document._columns = {}
        document._region_table = None
        document._by_tag = by_tag = dict(self._by_tag)
        document._children = children = dict(self._children)
        tags: set[str] = set()
        parents: set[int] = set()
        for old in gone:
            same_tag = _owned(by_tag, old.tag, tags)
            del same_tag[bisect_left(same_tag, old.node_id, key=_node_id)]
            if old.parent_id >= 0:
                siblings = _owned(children, old.parent_id, parents)
                del siblings[bisect_left(siblings, old.node_id)]
        for record in added.values():
            insort(_owned(by_tag, record.tag, tags), record, key=_node_id)
            if record.parent_id >= 0:
                insort(_owned(children, record.parent_id, parents),
                       record.node_id)
        for table, keys in ((by_tag, tags), (children, parents)):
            for key in keys:
                if not table[key]:
                    del table[key]
        return document

    # -- basic accessors ------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[NodeRecord]:
        return iter(self._nodes)

    @property
    def root(self) -> NodeRecord:
        return self._nodes[0]

    @property
    def nodes(self) -> tuple[NodeRecord, ...]:
        return self._nodes

    def node(self, node_id: int) -> NodeRecord:
        """Return the node with the given id (== start position)."""
        node = self.get(node_id)
        if node is None:
            raise DocumentError(f"no node with id {node_id}")
        return node

    def get(self, node_id: int) -> NodeRecord | None:
        """The node with the given id, or ``None`` if there is none."""
        index = bisect_left(self._starts, node_id)
        if index == len(self._starts) or self._starts[index] != node_id:
            return None
        return self._nodes[index]

    def tags(self) -> list[str]:
        """Distinct tags, sorted."""
        return sorted(self._by_tag)

    def nodes_with_tag(self, tag: str) -> list[NodeRecord]:
        """All nodes with the given tag, in document order."""
        return list(self._by_tag.get(tag, ()))

    def tag_count(self, tag: str) -> int:
        return len(self._by_tag.get(tag, ()))

    def tag_column(self, tag: str, starts: Sequence[int]
                   ) -> tuple[Sequence[NodeRecord], list[int]]:
        """The nodes with *tag* (``"*"``: every node) and their
        parents' labels (-1 for the root), aligned with *starts*, the
        tag's posting column: position *i* of each list is posting
        *i*'s node and its parent's start.  Read-only, like the
        posting.

        A posting lists its tag's nodes in document order, as this
        document does, so the alignment is a check, not a sort: the
        first time a start column meets this document's list it must
        have the same length and the same start at every position
        (one C pass), else :class:`PostingMismatchError`.  The lists
        are cached on the document, which is immutable, and not on
        the posting: a posting's decoded block outlives a commit that
        leaves its tag alone, while a commit that relabels nodes
        publishes a new document.
        """
        entry = self._columns.get(tag)
        if entry is None or entry[0] is not starts:
            nodes = self._nodes if tag == "*" else self._by_tag.get(tag, [])
            if len(nodes) != len(starts) or not all(
                    map(eq, map(_node_id, nodes), starts)):
                raise PostingMismatchError(
                    f"document {self.name!r} holds {len(nodes)} "
                    f"{tag!r} nodes that are not the {len(starts)} "
                    f"postings of its index")
            entry = self._columns[tag] = (
                starts, nodes, list(map(_parent_id, nodes)))
        return entry[1], entry[2]

    def regions(self, labels: Sequence[int]) -> list[Region]:
        """The nodes' own regions at start labels *labels*, in order.

        The table is a list indexed by start label (``None`` in the
        write path's label gaps), built on first use and cached on the
        immutable document: a list read is the cheapest lookup ``map``
        can drive (21.1 -> 17.0 ms against a dict over the 360 k
        labels of ``Q.Pers.3.d``).  A label that is no node here is a
        :class:`PostingMismatchError`, never a ``None`` handed out.
        """
        table = self._region_table
        if table is None:
            table = [None] * (self.root.end + 1)
            for node in self._nodes:
                table[node.start] = node.region
            self._region_table = table
        try:
            regions = list(map(table.__getitem__, labels))
        except IndexError:
            regions = [None]
        if not all(regions):
            missing = next(label for label in labels
                           if label >= len(table) or table[label] is None)
            raise PostingMismatchError(
                f"document {self.name!r} holds no node at label "
                f"{missing}: the rows are from another document")
        return regions

    # -- navigation -----------------------------------------------------

    def parent(self, node: NodeRecord) -> NodeRecord | None:
        if node.parent_id < 0:
            return None
        return self.node(node.parent_id)

    def children(self, node: NodeRecord) -> list[NodeRecord]:
        return [self.node(child_id)
                for child_id in self._children.get(node.node_id, ())]

    def descendants(self, node: NodeRecord) -> Iterator[NodeRecord]:
        """All proper descendants of *node*, in document order."""
        low = bisect_right(self._starts, node.start)
        high = bisect_right(self._starts, node.end)
        return iter(self._nodes[low:high])

    def subtree(self, node: NodeRecord) -> Iterator[NodeRecord]:
        """*node* followed by its descendants, in document order."""
        low = bisect_left(self._starts, node.start)
        high = bisect_right(self._starts, node.end)
        return iter(self._nodes[low:high])

    def ancestors(self, node: NodeRecord) -> Iterator[NodeRecord]:
        """Proper ancestors of *node*, nearest first."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    # -- statistics -----------------------------------------------------

    def depth(self) -> int:
        """Maximum node level in the document."""
        return max(node.level for node in self._nodes)

    def tag_histogram(self) -> dict[str, int]:
        return {tag: len(nodes) for tag, nodes in self._by_tag.items()}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"XmlDocument(name={self.name!r}, nodes={len(self)}, "
                f"depth={self.depth()})")


def merge_documents(documents: Iterable[XmlDocument],
                    root_tag: str = "collection",
                    name: str = "merged") -> XmlDocument:
    """Concatenate documents under a new synthetic root element.

    Used by the folding-factor replication of the benchmark workloads:
    the folded data set is the original document repeated *k* times
    under one root.  Region encodings are shifted so the merged node
    table is a valid single document.
    """
    from repro.document.builder import DocumentBuilder

    documents = list(documents)
    if not documents:
        raise DocumentError("cannot merge zero documents")
    builder = DocumentBuilder(name=name)
    with builder.element(root_tag):
        for document in documents:
            builder.splice(document)
    return builder.finish()
