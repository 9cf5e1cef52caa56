"""Statuses and moves: the optimizer search space (Sec. 3.1.1).

A *status* (Definition 2) captures an intermediate stage of query
evaluation: the pattern nodes are partitioned into *status nodes*
(Definition 1) — connected clusters whose internal edges have already
been joined — and each cluster records the pattern node by which its
intermediate result is physically ordered.  A *move* (Definition 4)
evaluates one remaining pattern edge, merging two clusters, choosing a
join algorithm (which fixes the native output order) and optionally a
sort that re-orders the merged result.

Statuses are immutable and hashable; two statuses with the same
clusters and orderings compare equal, which is what lets dynamic
programming collapse alternative paths (Sec. 3.1.2).  The final status
(single cluster covering the whole pattern) canonicalizes its ordering
to the query's ``order_by`` node, or to the ``ANY_ORDER`` sentinel when
the query does not constrain result order — the paper's "we don't care
about the ordering any more" (Example 3.6).

On the search path a status is one int, its *code*: one ``b``-bit
field per pattern node, ``b = len(pattern).bit_length()``, holding the
``ordered_by`` node of that node's cluster (``len(pattern)`` for
``ANY_ORDER``).  Every cluster is ordered by a node of its own, so two
nodes share a cluster exactly when their fields are equal, and a join
is one masked write of the merged cluster's fields
(:class:`~repro.core.enumeration.EnumerationContext`).  :class:`Status`
is the view: the sorted ``(node mask, ordered_by)`` pairs
(:func:`~repro.core.pattern.node_mask`), read through
:class:`StatusNode` frozensets.  :meth:`Status.from_code` and
:attr:`Status.code` convert; tests, ``explain`` and the plan-space
recorder read views, the search never builds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import OptimizerError
from repro.core.pattern import (PatternEdge, QueryPattern, mask_nodes,
                                node_mask)
from repro.core.plans import JoinAlgorithm

#: Sentinel ordering of a final status when the query has no order-by.
ANY_ORDER = -1


def start_code(size: int) -> int:
    """The code of the start status S0 of a *size*-node pattern: node
    ``i``'s field holds ``i``."""
    width = size.bit_length()
    return sum(node << width * node for node in range(size))


def decode(code: int, size: int) -> dict[int, int]:
    """The clusters of *code*: field value (``ordered_by``, or *size*
    for ``ANY_ORDER``) to node mask, in the order of each cluster's
    lowest node."""
    width = size.bit_length()
    field = (1 << width) - 1
    clusters: dict[int, int] = {}
    for node in range(size):
        value = code >> width * node & field
        clusters[value] = clusters.get(value, 0) | 1 << node
    return clusters


@dataclass(frozen=True, slots=True)
class StatusNode:
    """One cluster of already-joined pattern nodes (Definition 1)."""

    nodes: frozenset[int]
    ordered_by: int

    def __post_init__(self) -> None:
        if not self.nodes:
            raise OptimizerError("a status node cannot be empty")
        if self.ordered_by != ANY_ORDER and self.ordered_by not in self.nodes:
            raise OptimizerError(
                f"ordered_by {self.ordered_by} is not in the cluster "
                f"{sorted(self.nodes)}")

    @property
    def is_singleton(self) -> bool:
        return len(self.nodes) == 1

    def __str__(self) -> str:
        labels = ",".join(
            f"[{node}]" if node == self.ordered_by else str(node)
            for node in sorted(self.nodes))
        return "{" + labels + "}"


def _check_order(mask: int, order: int) -> None:
    if order != ANY_ORDER and (order < 0 or not mask >> order & 1):
        raise OptimizerError(f"ordered_by {order} is not in the cluster "
                             f"{list(mask_nodes(mask))}")


def _view(mask: int, order: int) -> StatusNode:
    return StatusNode(frozenset(mask_nodes(mask)), order)


class Status:
    """A partition of the pattern into ordered clusters (Definition 2).

    The view of a status code (:meth:`from_code`, :attr:`code`), or
    built from :class:`StatusNode` clusters — checked for what
    Definitions 1-2 require of the pairs: a cluster is non-empty, is
    ordered by one of its own nodes (or ``ANY_ORDER``), and shares no
    node with another cluster.
    """

    __slots__ = ("key", "_hash")

    #: ``(node mask, ordered_by)`` per cluster, sorted by mask
    key: tuple[tuple[int, int], ...]

    def __init__(self, clusters: Iterable[StatusNode]) -> None:
        seen = 0
        pairs = []
        for cluster in clusters:
            mask = node_mask(cluster.nodes)
            if not mask:
                raise OptimizerError("a status node cannot be empty")
            _check_order(mask, cluster.ordered_by)
            if seen & mask:
                raise OptimizerError("status clusters overlap")
            seen |= mask
            pairs.append((mask, cluster.ordered_by))
        self.key = tuple(sorted(pairs))
        self._hash = hash(self.key)

    @classmethod
    def from_code(cls, code: int, pattern: QueryPattern) -> "Status":
        """The view of the status with code *code* over *pattern*."""
        size = len(pattern)
        return cls(_view(mask, ANY_ORDER if value == size else value)
                   for value, mask in decode(code, size).items())

    @classmethod
    def start(cls, pattern: QueryPattern) -> "Status":
        """The start status S0: every node in its own cluster."""
        return cls.from_code(start_code(len(pattern)), pattern)

    @property
    def code(self) -> int:
        """This status as the search holds it (see the module
        docstring).  Only one cluster may be unordered: the fields of
        two would be equal, i.e. one cluster."""
        size = sum(mask.bit_count() for mask, _ in self.key)
        width = size.bit_length()
        code = 0
        unordered = 0
        for mask, order in self.key:
            if order == ANY_ORDER:
                unordered += 1
                order = size
            for node in mask_nodes(mask):
                code |= order << width * node
        if unordered > 1:
            raise OptimizerError("a status code holds one unordered "
                                 "cluster at most")
        return code

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Status):
            return NotImplemented
        return self._hash == other._hash and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Status({self})"

    # -- accessors ---------------------------------------------------------

    @property
    def clusters(self) -> frozenset[StatusNode]:
        return frozenset(_view(mask, order) for mask, order in self.key)

    def mask_of(self, node_id: int) -> int:
        """The node mask of the cluster holding *node_id*."""
        return self._pair_of(node_id)[0]

    def cluster_of(self, node_id: int) -> StatusNode:
        return _view(*self._pair_of(node_id))

    def _pair_of(self, node_id: int) -> tuple[int, int]:
        if node_id >= 0:
            for pair in self.key:
                if pair[0] >> node_id & 1:
                    return pair
        raise OptimizerError(f"node {node_id} not in any cluster")

    @property
    def ordered_nodes(self) -> int:
        """The node mask of every cluster's ``ordered_by`` node."""
        ordered = 0
        for _, order in self.key:
            if order != ANY_ORDER:
                ordered |= 1 << order
        return ordered

    def level(self, pattern: QueryPattern) -> int:
        """Definition 5: number of moves from the start status."""
        return len(pattern) - len(self.key)

    def is_final(self) -> bool:
        return len(self.key) == 1

    def remaining_edges(self, pattern: QueryPattern) -> Iterator[PatternEdge]:
        """Pattern edges whose endpoints lie in different clusters."""
        masks = [mask for mask, _ in self.key]
        for edge, ends in zip(pattern.edges, pattern.edge_masks):
            if not any(mask & ends == ends for mask in masks):
                yield edge

    def growing_nodes(self) -> list[StatusNode]:
        """Clusters holding more than one pattern node (DPAP-LD)."""
        return [_view(mask, order) for mask, order in self.key
                if mask & (mask - 1)]

    def __str__(self) -> str:
        return " ".join(sorted(str(cluster) for cluster in self.clusters))


def describe_move(move: tuple) -> str:
    """One line naming a move's join, its algorithm, optional sort and
    cost: *move* starts ``(edge, algorithm, sort_to, cost, ...)``."""
    edge, algorithm, sort_to, cost = move[:4]
    sort_note = f" + sort by {sort_to}" if sort_to is not None else ""
    return (f"join {edge.parent}{edge.axis}{edge.child} "
            f"via {algorithm}{sort_note} (cost {cost:.1f})")


@dataclass(frozen=True, slots=True)
class Move:
    """One evaluation step (Definition 4), as a view.

    Joins the clusters containing ``edge.parent`` (ancestor side) and
    ``edge.child`` (descendant side) with ``algorithm``, optionally
    followed by a sort that leaves the merged result ordered by
    ``sort_to``.  ``cost`` is the estimated cost of the join plus the
    optional sort; ``result`` is the status reached.  The search holds
    a move as the plain tuple ``(edge, algorithm, sort_to, cost,
    result code)``.
    """

    edge: PatternEdge
    algorithm: JoinAlgorithm
    sort_to: int | None
    cost: float
    result: Status

    @property
    def output_order(self) -> int:
        """The ordering of the merged cluster after this move."""
        return self.result.cluster_of(self.edge.parent).ordered_by

    def describe(self) -> str:
        return describe_move((self.edge, self.algorithm, self.sort_to,
                              self.cost))
