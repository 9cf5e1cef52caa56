"""Subtree partitioning by region-label ranges.

The partitioning invariant that makes scatter-gather execution sound:
**no structural relationship ever crosses a shard boundary**.  Region
encodings give it almost for free — an ancestor's region strictly
contains every descendant's region, so cutting the corpus into whole
subtrees of the root's children means any (ancestor, descendant) pair
is either (a) inside one assigned subtree, hence in one shard, or
(b) anchored at the document root, which is *replicated* into every
shard.  Every shard therefore computes its structural joins entirely
locally against its own index, with the original (global) region
labels preserved, and shard results are disjoint except for bindings
that touch only the root.

The invariant is about *pairs*, not twigs.  A pattern whose root binds
the replicated root and has two or more children may match with its
branches in different shards (``/r[a][b]``, every ``a`` in shard 0,
every ``b`` in shard 1), and no shard computes that match:
:class:`~repro.shard.sharded.ShardedDatabase` refuses such a pattern
with a typed :class:`~repro.errors.ShardError` rather than answer it.

Each shard receives a contiguous run of the root's child subtrees in
document order, so a shard owns one closed label range
``[label_lo, label_hi]`` and shard outputs, each in its plan's order,
concatenate back into the single node's order — or, where the root
binds a plan's order column, merge on that column
(:func:`~repro.shard.coordinator.merge_packed_runs`).  Assignment is
greedy: subtrees are dealt to the current shard until it reaches its
fair share of the remaining node count.  Shards past the last subtree
stay empty — legal, and exercised by the differential oracle's edge
cases.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from repro.errors import ShardError
from repro.document.document import XmlDocument
from repro.document.node import NodeRecord
from repro.estimation.estimator import WILDCARD

__all__ = ["ShardAssignment", "ShardPartition", "partition_document"]


@dataclass(frozen=True)
class ShardAssignment:
    """One shard's slice of the corpus.

    ``subtree_roots`` are the node ids (== start labels) of the root
    children whose whole subtrees this shard owns, in document order;
    ``label_lo``/``label_hi`` is the closed region-label range they
    cover (``-1``/``-1`` for an empty shard).  ``node_count`` excludes
    the replicated document root.
    """

    shard_id: int
    subtree_roots: tuple[int, ...]
    label_lo: int
    label_hi: int
    node_count: int

    @property
    def is_empty(self) -> bool:
        return not self.subtree_roots


class ShardPartition:
    """A full partitioning of one document across N shards."""

    def __init__(self, document: XmlDocument,
                 assignments: list[ShardAssignment]) -> None:
        self.document = document
        self.assignments = list(assignments)

    @property
    def shards(self) -> int:
        return len(self.assignments)

    def shard_nodes(self, shard_id: int) -> list[NodeRecord]:
        """The shard's own nodes (document order, root excluded)."""
        assignment = self.assignments[shard_id]
        nodes: list[NodeRecord] = []
        for root_id in assignment.subtree_roots:
            nodes.extend(self.document.subtree(
                self.document.node(root_id)))
        return nodes

    def shard_document(self, shard_id: int) -> XmlDocument:
        """The shard's corpus as a standalone document.

        The document root is replicated in front of the assigned
        subtrees and every node keeps its **original** region label,
        so per-shard plans see globally meaningful positions and the
        coordinator can merge shard outputs by label alone.
        """
        nodes = [self.document.root]
        nodes.extend(self.shard_nodes(shard_id))
        return XmlDocument(
            nodes, name=f"{self.document.name}-shard{shard_id}")

    def shard_of(self, node_id: int) -> int:
        """The shard owning *node_id* (the root lives in every shard)."""
        if node_id == self.document.root.node_id:
            raise ShardError(
                "the document root is replicated into every shard")
        for assignment in self.assignments:
            if assignment.label_lo <= node_id <= assignment.label_hi:
                return assignment.shard_id
        raise ShardError(f"node {node_id} is outside every shard range")

    # -- statistics ------------------------------------------------------

    @cached_property
    def _tag_counts(self) -> list[Counter]:
        """Per shard: tag -> owned node count, ``"*"`` for them all."""
        counts = []
        for shard_id in range(self.shards):
            tags = Counter({WILDCARD: self.assignments[shard_id].node_count})
            tags.update(node.tag for node in self.shard_nodes(shard_id))
            counts.append(tags)
        return counts

    def statistics_provenance(self, tags: "list[str] | None" = None
                              ) -> dict[str, list[dict]]:
        """Which shard owns which share of each tag's nodes.

        For every tag (or just *tags*): one entry per contributing
        shard with its node ``count`` and its ``fraction`` of the
        shards' total.  The replicated document root is
        coordinator-side and excluded here, so fractions describe only
        shard-owned mass.
        """
        provenance: dict[str, list[dict]] = {}
        for shard_id, counts in enumerate(self._tag_counts):
            for tag, count in counts.items():
                if count and (tags is None or tag in tags):
                    provenance.setdefault(tag, []).append(
                        {"shard_id": shard_id, "count": count})
        for contributions in provenance.values():
            total = sum(entry["count"] for entry in contributions)
            for entry in contributions:
                entry["fraction"] = entry["count"] / total
        return provenance


def partition_document(document: XmlDocument,
                       shards: int) -> ShardPartition:
    """Split *document* into *shards* label ranges of whole subtrees.

    Greedy contiguous assignment: walking the root's children in
    document order, each shard takes subtrees until it holds its fair
    share — the remaining node count divided by the remaining shard
    count.  Contiguity keeps each shard a single closed label range;
    a subtree larger than the fair share simply overfills its shard
    (subtrees are never split, that is the whole invariant).
    """
    if shards < 1:
        raise ShardError(f"shard count must be >= 1, got {shards}")
    children = document.children(document.root)
    # gap-free labels (every freshly parsed document) make subtree
    # sizing O(1); label gaps from the write path fall back to counting
    dense = (len(document)
             == document.root.end - document.root.start + 1)
    sizes = [child.region.subtree_size if dense
             else sum(1 for _ in document.subtree(child))
             for child in children]
    assignments: list[ShardAssignment] = []
    index = 0
    remaining = sum(sizes)
    for shard_id in range(shards):
        target = remaining / (shards - shard_id)
        taken: list[NodeRecord] = []
        count = 0
        while index < len(children) and (count < target or not taken):
            # leave at least one subtree per still-unfilled shard when
            # there are enough to go around
            left_over = len(children) - index
            if taken and left_over <= (shards - shard_id - 1):
                break
            taken.append(children[index])
            count += sizes[index]
            index += 1
        remaining -= count
        assignments.append(ShardAssignment(
            shard_id=shard_id,
            subtree_roots=tuple(child.node_id for child in taken),
            label_lo=taken[0].start if taken else -1,
            label_hi=taken[-1].end if taken else -1,
            node_count=count))
    if index < len(children):  # pragma: no cover - defensive
        raise ShardError("partitioner failed to place every subtree")
    return ShardPartition(document, assignments)

