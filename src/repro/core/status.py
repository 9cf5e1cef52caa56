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

The search builds hundreds of thousands of statuses per second, so a
status is integers: each cluster is a ``(node mask, ordered_by)`` pair
(:func:`~repro.core.pattern.node_mask`) and a status is the sorted
tuple of its pairs, :attr:`Status.key`, hashed once at construction.
:class:`StatusNode` — a frozenset of node ids and an ordering — is the
view the accessors hand out; nothing on the search path builds one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import OptimizerError
from repro.core.pattern import (PatternEdge, QueryPattern, mask_nodes,
                                node_mask)
from repro.core.plans import JoinAlgorithm

#: Sentinel ordering of a final status when the query has no order-by.
ANY_ORDER = -1


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

    Built from :class:`StatusNode` clusters, from another status by a
    join (:meth:`merged`) or, valid by construction, from the pattern
    (:meth:`start`).  The first two check what Definitions 1-2 require
    of the pairs: a cluster is non-empty, is ordered by one of its own
    nodes (or ``ANY_ORDER``), and shares no node with another cluster.
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
    def _sealed(cls, key: tuple[tuple[int, int], ...]) -> "Status":
        status = object.__new__(cls)
        status.key = key
        status._hash = hash(key)
        return status

    @classmethod
    def start(cls, pattern: QueryPattern) -> "Status":
        """The start status S0: every node in its own cluster."""
        return cls._sealed(tuple((1 << node.node_id, node.node_id)
                                 for node in pattern.nodes))

    def merged(self, ancestor: int, descendant: int,
               orders: Iterable[int]) -> list["Status"]:
        """The statuses a join of this status' clusters *ancestor* and
        *descendant* (node masks) reaches: one per ordering in *orders*
        of the merged cluster, every other cluster unchanged."""
        others = tuple(pair for pair in self.key
                       if pair[0] != ancestor and pair[0] != descendant)
        if len(others) != len(self.key) - 2:
            raise OptimizerError("a join merges two clusters of its status")
        merged = ancestor | descendant
        split = bisect_left(others, (merged,))
        head, tail = others[:split], others[split:]
        statuses = []
        for order in orders:
            _check_order(merged, order)
            statuses.append(self._sealed(head + ((merged, order),) + tail))
        return statuses

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


@dataclass(frozen=True, slots=True)
class Move:
    """One evaluation step (Definition 4).

    Joins the clusters containing ``edge.parent`` (ancestor side) and
    ``edge.child`` (descendant side) with ``algorithm``, optionally
    followed by a sort that leaves the merged result ordered by
    ``sort_to``.  ``cost`` is the estimated cost of the join plus the
    optional sort; ``result`` is the status reached.
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
        sort_note = (f" + sort by {self.sort_to}"
                     if self.sort_to is not None else "")
        return (f"join {self.edge.parent}{self.edge.axis}{self.edge.child} "
                f"via {self.algorithm}{sort_note} (cost {self.cost:.1f})")
