"""Query patterns: rooted node-labelled trees (Sec. 2.1).

A :class:`QueryPattern` is the internal form of a tree-pattern query.
Nodes carry a tag test (or wildcard) plus optional value predicates;
edges carry an :class:`Axis` — ``CHILD`` for parent/child edges or
``DESCENDANT`` for ancestor/descendant edges (the ``*``-labelled edges
of the paper).  Patterns are immutable once built; they are the input
to every optimizer and the schema of every result tuple.

A set of pattern nodes — a cluster, in the optimizer's terms — is a
*node mask* (:func:`node_mask`); a pattern precomputes the masks of its
edges and of each node's neighbors, which is all Definition 1's
connectivity test (:meth:`QueryPattern.is_connected_mask`) reads.

The module also owns the **pattern identity**: the id- and order-
independent :func:`canonical_signature` the plan cache keys on and the
query log digests, the :func:`pattern_isomorphism` that carries one
numbering onto another, and the :func:`canonical_ranks` table the plan
digest (:func:`repro.core.plans.canonical_plan_digest`) is written in.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import PatternError, PlanError
from repro.document.node import NodeRecord


def node_mask(node_ids: Iterable[int]) -> int:
    """The *node mask* of a set of pattern nodes: bit ``i`` set for
    node ``i``.  Patterns are small, so a cluster of nodes is one int."""
    mask = 0
    for node_id in node_ids:
        mask |= 1 << node_id
    return mask


@lru_cache(maxsize=4096)
def _nodes_of(mask: int) -> tuple[int, ...]:
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 1)
        mask ^= low
    return tuple(nodes)


#: masks below this are read from a table: patterns of up to ten nodes
_TABLED = 1 << 10
_MASK_NODES = tuple(_nodes_of.__wrapped__(mask) for mask in range(_TABLED))


def mask_nodes(mask: int) -> tuple[int, ...]:
    """The node ids of *mask*, ascending."""
    if mask < _TABLED:
        return _MASK_NODES[mask]
    return _nodes_of(mask)


class Axis(enum.Enum):
    """Structural relationship required along a pattern edge."""

    CHILD = "child"
    DESCENDANT = "descendant"

    def __str__(self) -> str:
        return "/" if self is Axis.CHILD else "//"


_OPERATORS: dict[str, Callable[[str, str], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "contains": lambda left, right: right in left,
}


@dataclass(frozen=True, slots=True)
class Predicate:
    """A value predicate on a pattern node.

    ``kind`` is ``"text"`` (compare the element's character data) or
    ``"attribute"`` (compare the named attribute).  Comparisons are
    string comparisons unless both sides parse as numbers, in which
    case they compare numerically — matching how the workload data
    encodes values.
    """

    kind: str
    op: str
    value: str
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("text", "attribute"):
            raise PatternError(f"unknown predicate kind {self.kind!r}")
        if self.op not in _OPERATORS:
            raise PatternError(f"unknown predicate operator {self.op!r}")
        if self.kind == "attribute" and not self.name:
            raise PatternError("attribute predicates need an attribute name")

    def matches(self, node: NodeRecord) -> bool:
        """Evaluate this predicate against a data node."""
        if self.kind == "text":
            actual = node.text
        else:
            actual = node.attributes.get(self.name)
            if actual is None:
                return False
        compare = _OPERATORS[self.op]
        try:
            return compare(float(actual), float(self.value))
        except ValueError:
            return compare(actual, self.value)

    def __str__(self) -> str:
        subject = "text()" if self.kind == "text" else f"@{self.name}"
        return f"{subject} {self.op} {self.value!r}"


@dataclass(frozen=True, slots=True)
class PatternNode:
    """One node of a query pattern.

    ``tag`` is the element-name test (``"*"`` matches any tag).
    ``predicates`` further restrict the candidate set.  ``node_id`` is
    the node's index within its pattern (assigned by
    :class:`QueryPattern`).
    """

    node_id: int
    tag: str
    predicates: tuple[Predicate, ...] = ()

    def matches(self, node: NodeRecord) -> bool:
        if self.tag != "*" and node.tag != self.tag:
            return False
        return all(predicate.matches(node) for predicate in self.predicates)

    @property
    def is_wildcard(self) -> bool:
        return self.tag == "*"

    def label(self) -> str:
        """Human-readable label used in plan explanations."""
        if not self.predicates:
            return self.tag
        conditions = " and ".join(str(p) for p in self.predicates)
        return f"{self.tag}[{conditions}]"

    def __str__(self) -> str:
        return f"${self.node_id}:{self.label()}"


@dataclass(frozen=True, slots=True)
class PatternEdge:
    """A directed edge from parent to child in the pattern tree."""

    parent: int
    child: int
    axis: Axis = Axis.CHILD

    def __str__(self) -> str:
        return f"${self.parent} {self.axis} ${self.child}"


class QueryPattern:
    """A rooted tree-pattern query.

    Build one with :meth:`QueryPattern.build`, the
    :class:`PatternBuilder` helper, or the XPath front-end
    (:func:`repro.xpath.compile_xpath`).
    """

    def __init__(self, nodes: Iterable[PatternNode],
                 edges: Iterable[PatternEdge],
                 order_by: int | None = None) -> None:
        self.nodes: tuple[PatternNode, ...] = tuple(nodes)
        self.edges: tuple[PatternEdge, ...] = tuple(edges)
        self.order_by = order_by
        self._parents: dict[int, PatternEdge] = {}
        self._children: dict[int, list[PatternEdge]] = {}
        self._validate()
        self._edge_by_pair = {(edge.parent, edge.child): edge
                              for edge in self.edges}
        self._within: dict[int, tuple[PatternEdge, ...]] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, spec: Mapping[str, object]) -> "QueryPattern":
        """Build a pattern from a compact dict specification.

        Example::

            QueryPattern.build({
                "nodes": ["manager", "employee", "name"],
                "edges": [(0, 1, "//"), (1, 2, "/")],
                "order_by": 0,
            })
        """
        node_specs = spec["nodes"]
        nodes = []
        for index, node_spec in enumerate(node_specs):  # type: ignore[arg-type]
            if isinstance(node_spec, str):
                nodes.append(PatternNode(index, node_spec))
            else:
                tag, predicates = node_spec  # type: ignore[misc]
                nodes.append(PatternNode(index, tag, tuple(predicates)))
        edges = []
        for parent, child, axis in spec["edges"]:  # type: ignore[misc]
            if isinstance(axis, str):
                axis = Axis.DESCENDANT if axis == "//" else Axis.CHILD
            edges.append(PatternEdge(parent, child, axis))
        return cls(nodes, edges, order_by=spec.get("order_by"))  # type: ignore[arg-type]

    def _validate(self) -> None:
        if not self.nodes:
            raise PatternError("a pattern needs at least one node")
        ids = [node.node_id for node in self.nodes]
        if ids != list(range(len(self.nodes))):
            raise PatternError("pattern node ids must be 0..n-1 in order")
        if len(self.edges) != len(self.nodes) - 1:
            raise PatternError(
                f"a tree with {len(self.nodes)} nodes needs "
                f"{len(self.nodes) - 1} edges, got {len(self.edges)}")
        for edge in self.edges:
            for endpoint in (edge.parent, edge.child):
                if not 0 <= endpoint < len(self.nodes):
                    raise PatternError(f"edge references node {endpoint}, "
                                       f"which does not exist")
            if edge.child in self._parents:
                raise PatternError(f"node {edge.child} has two parents")
            self._parents[edge.child] = edge
            self._children.setdefault(edge.parent, []).append(edge)
        roots = [node.node_id for node in self.nodes
                 if node.node_id not in self._parents]
        if len(roots) != 1:
            raise PatternError(f"pattern must have one root, found {roots}")
        self._root = roots[0]
        # connectivity: BFS from the root must reach every node.
        seen = {self._root}
        frontier = [self._root]
        while frontier:
            current = frontier.pop()
            for edge in self._children.get(current, ()):
                seen.add(edge.child)
                frontier.append(edge.child)
        if len(seen) != len(self.nodes):
            raise PatternError("pattern is not connected")
        if self.order_by is not None and not (
                0 <= self.order_by < len(self.nodes)):
            raise PatternError(f"order_by node {self.order_by} out of range")

    # -- structure accessors --------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> int:
        return self._root

    def node(self, node_id: int) -> PatternNode:
        return self.nodes[node_id]

    def parent_edge(self, node_id: int) -> PatternEdge | None:
        return self._parents.get(node_id)

    def child_edges(self, node_id: int) -> list[PatternEdge]:
        return list(self._children.get(node_id, ()))

    def children(self, node_id: int) -> list[int]:
        return [edge.child for edge in self._children.get(node_id, ())]

    def edge_between(self, a: int, b: int) -> PatternEdge | None:
        """The edge joining *a* and *b*, in either direction."""
        return (self._edge_by_pair.get((a, b))
                or self._edge_by_pair.get((b, a)))

    def neighbors(self, node_id: int) -> list[int]:
        """All nodes adjacent to *node_id* in the (undirected) tree."""
        result = [edge.child for edge in self._children.get(node_id, ())]
        parent = self._parents.get(node_id)
        if parent is not None:
            result.append(parent.parent)
        return result

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        """Per edge, in :attr:`edges` order, the node mask of its two
        endpoints (see :func:`node_mask`)."""
        return tuple(1 << edge.parent | 1 << edge.child
                     for edge in self.edges)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Per node id, the node mask of its neighbors."""
        adjacency = [0] * len(self.nodes)
        for edge in self.edges:
            adjacency[edge.parent] |= 1 << edge.child
            adjacency[edge.child] |= 1 << edge.parent
        return tuple(adjacency)

    @cached_property
    def signature(self) -> tuple:
        """:func:`canonical_signature`, computed once: a pattern does
        not change after it is built."""
        return node_signatures(self)[self._root]

    def edges_within(self, mask: int) -> tuple[PatternEdge, ...]:
        """The edges with both endpoints in the node mask *mask*, in
        :attr:`edges` order (cached per mask)."""
        within = self._within.get(mask)
        if within is None:
            within = self._within[mask] = tuple(
                edge for edge, ends in zip(self.edges, self.edge_masks)
                if mask & ends == ends)
        return within

    def is_connected_mask(self, mask: int) -> bool:
        """Definition 1: is the node mask *mask* a valid status-node
        cluster — non-empty, inside the pattern and connected?"""
        if mask <= 0 or mask >> len(self.nodes):
            return False
        adjacency = self.adjacency
        reached = frontier = mask & -mask
        while frontier:
            grown = 0
            for node_id in mask_nodes(frontier):
                grown |= adjacency[node_id]
            frontier = grown & mask & ~reached
            reached |= frontier
        return reached == mask

    def subtree_nodes(self, node_id: int) -> frozenset[int]:
        """Node ids of the subtree rooted at *node_id*."""
        seen = {node_id}
        frontier = [node_id]
        while frontier:
            current = frontier.pop()
            for child in self.children(current):
                seen.add(child)
                frontier.append(child)
        return frozenset(seen)

    def walk_preorder(self) -> Iterator[int]:
        """Node ids in pre-order from the root."""
        stack = [self._root]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(reversed(self.children(current)))

    def depth(self) -> int:
        """Length of the longest root-to-leaf edge path."""
        depths = {self._root: 0}
        best = 0
        for node_id in self.walk_preorder():
            for child in self.children(node_id):
                depths[child] = depths[node_id] + 1
                best = max(best, depths[child])
        return best

    def describe(self) -> str:
        """Multi-line, indented rendering of the pattern tree."""
        lines: list[str] = []
        depths = {self._root: 0}

        def visit(node_id: int) -> None:
            depth = depths[node_id]
            edge = self.parent_edge(node_id)
            prefix = "  " * depth + (str(edge.axis) if edge else "")
            lines.append(f"{prefix}{self.node(node_id).label()}")
            for child in self.children(node_id):
                depths[child] = depth + 1
                visit(child)

        visit(self._root)
        if self.order_by is not None:
            lines.append(f"order by ${self.order_by}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"QueryPattern(nodes={len(self.nodes)}, "
                f"edges={len(self.edges)})")


class PatternBuilder:
    """Fluent builder for query patterns.

    Example::

        builder = PatternBuilder()
        manager = builder.node("manager")
        employee = builder.node("employee")
        builder.edge(manager, employee, Axis.DESCENDANT)
        pattern = builder.finish(order_by=manager)
    """

    def __init__(self) -> None:
        self._nodes: list[PatternNode] = []
        self._edges: list[PatternEdge] = []

    def node(self, tag: str,
             predicates: Iterable[Predicate] = ()) -> int:
        node_id = len(self._nodes)
        self._nodes.append(PatternNode(node_id, tag, tuple(predicates)))
        return node_id

    def edge(self, parent: int, child: int,
             axis: Axis = Axis.CHILD) -> "PatternBuilder":
        self._edges.append(PatternEdge(parent, child, axis))
        return self

    def add_predicate(self, node_id: int, predicate: Predicate) -> None:
        """Attach one more predicate to an already-declared node."""
        node = self._nodes[node_id]
        self._nodes[node_id] = PatternNode(
            node.node_id, node.tag, node.predicates + (predicate,))

    def finish(self, order_by: int | None = None) -> QueryPattern:
        return QueryPattern(self._nodes, self._edges, order_by=order_by)


# -- canonical pattern identity -----------------------------------------------

def node_signatures(pattern: QueryPattern) -> dict[int, tuple]:
    """Per-node canonical subtree signatures, computed bottom-up:
    tag, predicates, whether the node is the ``order_by`` target, and
    the sorted ``(axis, signature)`` of every child."""
    signatures: dict[int, tuple] = {}
    # reversed pre-order visits children before parents
    for node_id in reversed(list(pattern.walk_preorder())):
        node = pattern.node(node_id)
        children = tuple(sorted(
            (str(edge.axis), signatures[edge.child])
            for edge in pattern.child_edges(node_id)))
        predicates = tuple(sorted(str(p) for p in node.predicates))
        signatures[node_id] = (node.tag, predicates,
                               node_id == pattern.order_by, children)
    return signatures


def canonical_signature(pattern: QueryPattern) -> tuple:
    """Order- and id-independent identity of *pattern*.

    Two patterns are isomorphic — same tags, predicates, axes and tree
    shape — and ordered by corresponding nodes iff their signatures
    compare equal.  The ``order_by`` target is part of the identity,
    since two patterns that differ only in result order need different
    plans (the final ordering constraint changes which sorts are
    required).
    """
    return pattern.signature


def canonical_ranks(pattern: QueryPattern) -> dict[int, int]:
    """node id -> rank of its canonical subtree signature.

    Interchangeable nodes — identical signatures — share a rank, which
    is exactly the freedom :func:`pattern_isomorphism` has, so anything
    written in ranks is stable across node renumbering.
    """
    signatures = node_signatures(pattern)
    ranks = {key: rank for rank, key in enumerate(
        sorted({repr(sig) for sig in signatures.values()}))}
    return {node_id: ranks[repr(signatures[node_id])]
            for node_id in signatures}


def pattern_isomorphism(source: QueryPattern,
                        target: QueryPattern) -> dict[int, int]:
    """A node-id mapping carrying *source* onto *target*.

    Both patterns must have equal canonical signatures.  Children with
    identical subtree signatures are interchangeable, so any signature-
    respecting pairing yields a semantically equivalent plan remap.
    """
    source_sigs = node_signatures(source)
    target_sigs = node_signatures(target)
    if source_sigs[source.root] != target_sigs[target.root]:
        raise PlanError("patterns are not isomorphic")
    mapping: dict[int, int] = {}
    stack = [(source.root, target.root)]
    while stack:
        source_id, target_id = stack.pop()
        mapping[source_id] = target_id
        source_children = sorted(
            source.child_edges(source_id),
            key=lambda e: (str(e.axis), source_sigs[e.child]))
        target_children = sorted(
            target.child_edges(target_id),
            key=lambda e: (str(e.axis), target_sigs[e.child]))
        for source_edge, target_edge in zip(source_children,
                                            target_children):
            stack.append((source_edge.child, target_edge.child))
    return mapping
