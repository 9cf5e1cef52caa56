"""Cardinality estimators used by the optimizers.

Two interchangeable estimators implement
:class:`CardinalityEstimator`:

* :class:`PositionalEstimator` — positional + level histograms per tag,
  as in the paper's experiments;
* :class:`ExactEstimator` — exact pairwise structural-join counts
  computed from the data (used for calibration, tests, and the
  estimation-error ablation bench).

Both answer the same two queries: candidate-set size of one pattern
node and result size of one pattern edge.  The result size of a
connected sub-pattern is not an estimator's: the per-query
:class:`PatternCardinalities` combines the node and edge estimates
under the textbook attribute-independence assumption — the estimator
of the paper's reference [17] is likewise built from pairwise
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import EstimationError
from repro.document.document import XmlDocument
from repro.document.node import NodeRecord, Region
from repro.core.pattern import (Axis, PatternNode, QueryPattern,
                                mask_nodes, node_mask)
from repro.estimation.histogram import LevelHistogram, PositionalHistogram

WILDCARD = "*"

#: Fallback selectivity for range predicates, where distinct-value
#: counts say nothing about the cut point.
RANGE_PREDICATE_SELECTIVITY = 1.0 / 3.0


@dataclass
class TagStatistics:
    """Per-tag summary: counts, histograms, distinct-value counts."""

    tag: str
    count: int = 0
    positions: PositionalHistogram | None = None
    levels: LevelHistogram = field(default_factory=LevelHistogram)
    distinct_texts: int = 0
    distinct_attribute_values: dict[str, int] = field(default_factory=dict)

    def clone(self) -> "TagStatistics":
        """Deep-enough copy for copy-on-write statistics deltas."""
        return TagStatistics(
            self.tag, self.count,
            self.positions.clone() if self.positions else None,
            self.levels.clone(), self.distinct_texts,
            dict(self.distinct_attribute_values))

    def merge(self, other: "TagStatistics") -> None:
        """Fold *other* into this entry (shard-statistics merge).

        Counts and histograms add exactly because per-shard histograms
        are built over the shared global label space.  Distinct-value
        counts add under a disjoint-values assumption — shards own
        disjoint subtrees, so a value repeated across shards is
        counted once per shard.  That overcounts shared values, which
        only makes equality predicates look *more* selective; the
        estimates remain sane for planning.
        """
        if other.tag != self.tag:
            raise EstimationError(
                f"cannot merge statistics for tag {other.tag!r} into "
                f"{self.tag!r}")
        self.count += other.count
        if other.positions is not None:
            if self.positions is None:
                self.positions = other.positions.clone()
            else:
                self.positions.merge_from(other.positions)
        self.levels.merge_from(other.levels)
        self.distinct_texts += other.distinct_texts
        for name, distinct in other.distinct_attribute_values.items():
            self.distinct_attribute_values[name] = (
                self.distinct_attribute_values.get(name, 0) + distinct)


def build_tag_statistics(document: XmlDocument, grid: int = 16,
                         nodes: Iterable[NodeRecord] | None = None,
                         space: int | None = None) -> dict[str, TagStatistics]:
    """Scan *document* once and build statistics for every tag.

    The special key ``"*"`` aggregates all nodes, supporting wildcard
    pattern nodes.

    The histogram position space is the document's *label* space
    (``root.end + 1``), not its node count: for densely labeled
    documents the two coincide, while gapped region labels (the
    incremental write path, :mod:`repro.txn`) spread fewer nodes over
    a larger space.

    *nodes* restricts the scan to a subset of the document's nodes and
    *space* pins the histogram position space — together they let a
    shard build statistics over only its assigned subtrees while
    keeping histogram buckets aligned with every other shard's, so
    :func:`merge_tag_statistics` can add them cell-for-cell.
    """
    if space is None:
        space = document.root.end + 1
    stats: dict[str, TagStatistics] = {}
    texts: dict[str, set[str]] = {}
    attributes: dict[str, dict[str, set[str]]] = {}
    for key in (WILDCARD,):
        stats[key] = TagStatistics(
            key, positions=PositionalHistogram(space, grid))
        texts[key] = set()
        attributes[key] = {}
    for node in (document if nodes is None else nodes):
        for key in (node.tag, WILDCARD):
            entry = stats.get(key)
            if entry is None:
                entry = TagStatistics(
                    key, positions=PositionalHistogram(space, grid))
                stats[key] = entry
                texts[key] = set()
                attributes[key] = {}
            entry.count += 1
            entry.positions.add(node.region)
            entry.levels.add(node.level)
            if node.text:
                texts[key].add(node.text)
            for name, value in node.attributes.items():
                attributes[key].setdefault(name, set()).add(value)
    for key, entry in stats.items():
        entry.distinct_texts = len(texts[key])
        entry.distinct_attribute_values = {
            name: len(values) for name, values in attributes[key].items()}
    return stats


def merge_tag_statistics(
        parts: Iterable[Mapping[str, TagStatistics]]
) -> dict[str, TagStatistics]:
    """Combine per-shard statistics into one global statistics map.

    Every part must have been built over the same position space and
    grid (see :func:`build_tag_statistics`'s *space* parameter); the
    merged map is what the coordinator's planner estimates against.
    """
    merged: dict[str, TagStatistics] = {}
    for part in parts:
        for tag, entry in part.items():
            existing = merged.get(tag)
            if existing is None:
                merged[tag] = entry.clone()
            else:
                existing.merge(entry)
    return merged


def _predicate_selectivity(node: PatternNode,
                           stats: Mapping[str, TagStatistics]) -> float:
    """Estimated combined selectivity of a pattern node's predicates."""
    entry = stats.get(node.tag if not node.is_wildcard else WILDCARD)
    selectivity = 1.0
    for predicate in node.predicates:
        if predicate.op == "=":
            if predicate.kind == "text":
                distinct = entry.distinct_texts if entry else 0
            else:
                distinct = (entry.distinct_attribute_values.get(
                    predicate.name, 0) if entry else 0)
            selectivity *= 1.0 / distinct if distinct else 0.1
        elif predicate.op == "!=":
            selectivity *= 0.9
        else:
            selectivity *= RANGE_PREDICATE_SELECTIVITY
    return selectivity


class CardinalityEstimator:
    """Interface consumed by the optimizers."""

    def node_candidates(self, node: PatternNode) -> float:
        """Index postings retrieved for *node* (before predicates)."""
        raise NotImplementedError

    def node_cardinality(self, node: PatternNode) -> float:
        """Candidate-set size of *node* after its predicates."""
        raise NotImplementedError

    def edge_cardinality(self, pattern: QueryPattern, parent: int,
                         child: int) -> float:
        """Estimated result size of the single edge (parent, child)."""
        raise NotImplementedError


class PositionalEstimator(CardinalityEstimator):
    """Histogram-backed estimator (the paper's configuration)."""

    def __init__(self, stats: Mapping[str, TagStatistics]) -> None:
        self._stats = dict(stats)
        # Pairwise histogram joins are the expensive part of estimation;
        # they depend only on (node tests, axis), so memoize across
        # queries the way a real system caches derived statistics.
        self._edge_cache: dict[tuple[PatternNode, PatternNode, Axis],
                               float] = {}

    @classmethod
    def from_document(cls, document: XmlDocument,
                      grid: int = 16) -> "PositionalEstimator":
        return cls(build_tag_statistics(document, grid=grid))

    def _entry(self, tag: str) -> TagStatistics | None:
        return self._stats.get(tag)

    def node_candidates(self, node: PatternNode) -> float:
        entry = self._entry(WILDCARD if node.is_wildcard else node.tag)
        return float(entry.count) if entry else 0.0

    def node_cardinality(self, node: PatternNode) -> float:
        candidates = self.node_candidates(node)
        if candidates == 0.0:
            return 0.0
        return candidates * _predicate_selectivity(node, self._stats)

    def edge_cardinality(self, pattern: QueryPattern, parent: int,
                         child: int) -> float:
        edge = pattern.edge_between(parent, child)
        if edge is None or (edge.parent, edge.child) != (parent, child):
            raise EstimationError(
                f"({parent}, {child}) is not an edge of the pattern")
        parent_node = pattern.node(parent)
        child_node = pattern.node(child)
        key = (parent_node, child_node, edge.axis)
        cached = self._edge_cache.get(key)
        if cached is not None:
            return cached
        parent_entry = self._entry(
            WILDCARD if parent_node.is_wildcard else parent_node.tag)
        child_entry = self._entry(
            WILDCARD if child_node.is_wildcard else child_node.tag)
        if parent_entry is None or child_entry is None:
            estimate = 0.0
        else:
            estimate = parent_entry.positions.estimate_containment_join(
                child_entry.positions)
            if edge.axis is Axis.CHILD:
                estimate *= parent_entry.levels.parent_child_fraction(
                    child_entry.levels)
            estimate *= _predicate_selectivity(parent_node, self._stats)
            estimate *= _predicate_selectivity(child_node, self._stats)
        self._edge_cache[key] = estimate
        return estimate


class ExactEstimator(CardinalityEstimator):
    """Ground-truth pairwise estimator computed from the document.

    Node candidate sets (with predicates applied) and single-edge join
    sizes are exact; multi-edge sub-patterns still combine edges under
    independence, which keeps optimization costs polynomial and mirrors
    what a production estimator can know.
    """

    def __init__(self, document: XmlDocument) -> None:
        self._document = document
        self._stats = build_tag_statistics(document, grid=1)
        self._candidate_cache: dict[PatternNode, list[NodeRecord]] = {}
        self._edge_cache: dict[tuple[PatternNode, PatternNode, Axis],
                               int] = {}

    def _candidates(self, node: PatternNode) -> list[NodeRecord]:
        cached = self._candidate_cache.get(node)
        if cached is None:
            if node.is_wildcard:
                pool: Iterable[NodeRecord] = self._document
            else:
                pool = self._document.nodes_with_tag(node.tag)
            cached = [candidate for candidate in pool
                      if node.matches(candidate)]
            self._candidate_cache[node] = cached
        return cached

    def node_candidates(self, node: PatternNode) -> float:
        if node.is_wildcard:
            return float(len(self._document))
        return float(self._document.tag_count(node.tag))

    def node_cardinality(self, node: PatternNode) -> float:
        return float(len(self._candidates(node)))

    def edge_cardinality(self, pattern: QueryPattern, parent: int,
                         child: int) -> float:
        edge = pattern.edge_between(parent, child)
        if edge is None or (edge.parent, edge.child) != (parent, child):
            raise EstimationError(
                f"({parent}, {child}) is not an edge of the pattern")
        parent_node = pattern.node(parent)
        child_node = pattern.node(child)
        key = (parent_node, child_node, edge.axis)
        cached = self._edge_cache.get(key)
        if cached is None:
            cached = count_containment_pairs(
                [c.region for c in self._candidates(parent_node)],
                [c.region for c in self._candidates(child_node)],
                parent_child=edge.axis is Axis.CHILD)
            self._edge_cache[key] = cached
        return float(cached)


def count_containment_pairs(ancestors: list[Region],
                            descendants: list[Region],
                            parent_child: bool = False) -> int:
    """Exact count of (a, d) containment pairs between two region lists.

    Both lists must be in document order (sorted by start).  Runs the
    counting variant of the stack-tree merge: linear in input size plus
    output count bookkeeping.
    """
    count = 0
    stack: list[Region] = []
    a_index = 0
    for descendant in descendants:
        while a_index < len(ancestors) and (
                ancestors[a_index].start < descendant.start):
            candidate = ancestors[a_index]
            while stack and stack[-1].end < candidate.start:
                stack.pop()
            stack.append(candidate)
            a_index += 1
        while stack and stack[-1].end < descendant.start:
            stack.pop()
        if parent_child:
            count += sum(1 for region in stack
                         if region.end >= descendant.end
                         and region.level + 1 == descendant.level)
        else:
            count += sum(1 for region in stack
                         if region.end >= descendant.end)
    return count


class ScaledEstimator(CardinalityEstimator):
    """What-if wrapper: hypothetically scaled per-tag cardinalities.

    Multiplies a base estimator's per-node candidate counts and
    cardinalities by a per-tag factor (``{"item": 10.0}`` models "ten
    times as many items"); edge results scale by both endpoints'
    factors, which leaves per-edge *selectivities* unchanged — the
    hypothesis grows the data, not the structural correlation.  The
    base estimator is never modified, so a what-if analysis can price
    plans against hypothetical statistics without touching the
    database's statistics epoch (:func:`repro.obs.planspace.run_whatif`).
    """

    def __init__(self, base: CardinalityEstimator,
                 tag_scale: Mapping[str, float]) -> None:
        self._base = base
        self._scale = {tag: float(factor)
                       for tag, factor in tag_scale.items()}
        for tag, factor in self._scale.items():
            if factor < 0:
                raise EstimationError(
                    f"tag scale for {tag!r} must be >= 0, got {factor}")

    def _factor(self, node: PatternNode) -> float:
        if node.tag == WILDCARD:
            return self._scale.get(WILDCARD, 1.0)
        return self._scale.get(node.tag, 1.0)

    def node_candidates(self, node: PatternNode) -> float:
        return self._base.node_candidates(node) * self._factor(node)

    def node_cardinality(self, node: PatternNode) -> float:
        return self._base.node_cardinality(node) * self._factor(node)

    def edge_cardinality(self, pattern: QueryPattern, parent: int,
                         child: int) -> float:
        return (self._base.edge_cardinality(pattern, parent, child)
                * self._factor(pattern.node(parent))
                * self._factor(pattern.node(child)))


class PatternCardinalities:
    """Per-query cardinalities: each node's, cached from the estimator,
    and each connected sub-pattern's, combined here.

    Optimizers instantiate one of these per ``optimize()`` call so that
    repeated lookups during plan enumeration hit a dict instead of
    re-deriving histogram math.  A sub-pattern is keyed by its node
    mask (:func:`~repro.core.pattern.node_mask`), the form the search
    already holds its clusters in; the pricing walk's frozensets are
    converted to the same key, so both read one cache.
    """

    def __init__(self, pattern: QueryPattern,
                 estimator: CardinalityEstimator) -> None:
        self.pattern = pattern
        self.estimator = estimator
        self._node_cache: dict[int, float] = {}
        self._candidates_cache: dict[int, float] = {}
        self._cluster_cache: dict[int, float] = {}

    def node(self, node_id: int) -> float:
        cached = self._node_cache.get(node_id)
        if cached is None:
            cached = self.estimator.node_cardinality(
                self.pattern.node(node_id))
            self._node_cache[node_id] = cached
        return cached

    def candidates(self, node_id: int) -> float:
        cached = self._candidates_cache.get(node_id)
        if cached is None:
            cached = self.estimator.node_candidates(
                self.pattern.node(node_id))
            self._candidates_cache[node_id] = cached
        return cached

    def cluster(self, node_ids: Iterable[int]) -> float:
        """:meth:`cluster_cardinality` of the sub-pattern *node_ids*."""
        return self.cluster_cardinality(node_mask(node_ids))

    def cluster_cardinality(self, mask: int) -> float:
        """Estimated match count of the connected sub-pattern with node
        mask *mask*: the independence combination of per-edge
        selectivities, ``prod(|n|) * prod(sel(e))`` over its nodes and
        the edges inside it."""
        cached = self._cluster_cache.get(mask)
        if cached is not None:
            return cached
        pattern = self.pattern
        if not mask:
            raise EstimationError("cluster must be non-empty")
        if not pattern.is_connected_mask(mask):
            raise EstimationError(f"cluster {list(mask_nodes(mask))} is "
                                  "not a connected sub-pattern")
        cardinality = 1.0
        for node_id in mask_nodes(mask):
            cardinality *= self.node(node_id)
        for edge, ends in zip(pattern.edges, pattern.edge_masks):
            if mask & ends != ends:
                continue
            parent_size = self.node(edge.parent)
            child_size = self.node(edge.child)
            if parent_size == 0 or child_size == 0:
                cardinality = 0.0
                break
            pair = self.estimator.edge_cardinality(pattern, edge.parent,
                                                   edge.child)
            cardinality *= pair / (parent_size * child_size)
        self._cluster_cache[mask] = cardinality
        return cardinality
