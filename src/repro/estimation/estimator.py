"""Statistics and the cardinality estimators used by the optimizers.

:class:`Statistics` is the one place per-tag statistics come from:
counts, positional and level histograms, distinct-value counts, built
by one scan and advanced by commit deltas.  Two interchangeable
estimators implement :class:`CardinalityEstimator`:

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
from typing import Collection, Iterable, Mapping

from repro.errors import EstimationError
from repro.document.document import XmlDocument
from repro.document.node import NodeRecord, Region
from repro.core.pattern import (Axis, PatternNode, QueryPattern,
                                mask_nodes, node_mask)
from repro.estimation.histogram import (HISTOGRAM_GRID, LevelHistogram,
                                        PositionalHistogram)

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


class Statistics:
    """The per-tag statistics the optimizer plans with: one fold.

    One scan in document order builds them; a commit's node delta
    advances them (:meth:`apply_delta`), copy-on-write per touched tag
    so that estimators handed out earlier keep reading frozen entries;
    :meth:`estimator` is what every back end plans with.  The special
    key ``"*"`` aggregates all nodes, supporting wildcard pattern nodes.

    The histograms' position space is the document's *label* space,
    ``root.end + 1``, not its node count: for densely labeled documents
    the two coincide, while gapped region labels (the write path,
    :mod:`repro.txn`) spread fewer nodes over a larger space.  It stays
    exactly that: a delta whose labels reach it (a commit that moved
    the root's end) rebuilds everything from the committed document.
    So the statistics always equal a fresh scan of their document.

    Distinct-value counts are read off value *multisets*, which a
    removal can decrement (a plain set cannot survive one).
    """

    def __init__(self, document: XmlDocument,
                 grid: int = HISTOGRAM_GRID) -> None:
        self.grid = grid
        self._scan(document)

    def _scan(self, document: XmlDocument) -> None:
        #: label space every histogram covers: ``root.end + 1``
        self.position_space = document.root.end + 1
        #: tag -> entry; ``"*"`` first, the others in document order
        self.entries: dict[str, TagStatistics] = {}
        # value -> multiplicity, per tag (and per attribute name)
        self._texts: dict[str, dict[str, int]] = {}
        self._attributes: dict[str, dict[str, dict[str, int]]] = {}
        self._new_entry(WILDCARD)
        for node in document:
            self._add(node)
        for tag in self.entries:
            self._refresh_distinct(tag)

    def apply_delta(self, added: Collection[NodeRecord],
                    removed: Collection[NodeRecord],
                    document: XmlDocument) -> None:
        """Absorb one commit's node delta; *document* is the document
        the commit published.

        Touched tag entries (and the ``"*"`` aggregate) are cloned
        before they change, so previously handed-out estimators keep a
        frozen view; untouched tags share their entries.  A delta that
        reaches past the position space rebuilds from *document*
        instead — it moved the root's end, and the space must follow.
        """
        if max((node.end for node in added),
               default=-1) >= self.position_space:
            self._scan(document)
            return
        touched = {node.tag for node in added} | {
            node.tag for node in removed}
        if not touched:
            return
        touched.add(WILDCARD)
        for tag in touched:
            entry = self.entries.get(tag)
            if entry is not None:
                self.entries[tag] = entry.clone()
        for node in removed:
            for key in (node.tag, WILDCARD):
                entry = self.entries[key]
                entry.count -= 1
                entry.positions.remove(node.region)
                entry.levels.remove(node.level)
            self._count_values(node, -1)
        for node in added:
            self._add(node)
        for tag in touched:
            entry = self.entries.get(tag)
            if entry is None:
                continue
            if entry.count == 0 and tag != WILDCARD:
                del self.entries[tag]
            else:
                self._refresh_distinct(tag)

    def estimator(self) -> "PositionalEstimator":
        """A fresh estimator over the current statistics: its edge memo
        starts empty, and it keeps reading the entries it was built
        over whatever later deltas do."""
        return PositionalEstimator(self.entries)

    def _new_entry(self, tag: str) -> TagStatistics:
        entry = self.entries[tag] = TagStatistics(
            tag, positions=PositionalHistogram(self.position_space,
                                               self.grid))
        return entry

    def _add(self, node: NodeRecord) -> None:
        for key in (node.tag, WILDCARD):
            entry = self.entries.get(key)
            if entry is None:
                entry = self._new_entry(key)
            entry.count += 1
            entry.positions.add(node.region)
            entry.levels.add(node.level)
        self._count_values(node, +1)

    def _count_values(self, node: NodeRecord, sign: int) -> None:
        for key in (node.tag, WILDCARD):
            if node.text:
                _bump(self._texts.setdefault(key, {}), node.text, sign)
            if node.attributes:
                per_name = self._attributes.setdefault(key, {})
                for name, value in node.attributes.items():
                    _bump(per_name.setdefault(name, {}), value, sign)

    def _refresh_distinct(self, tag: str) -> None:
        entry = self.entries[tag]
        entry.distinct_texts = len(self._texts.get(tag, ()))
        entry.distinct_attribute_values = {
            name: len(values)
            for name, values in self._attributes.get(tag, {}).items()
            if values}


def _bump(multiset: dict[str, int], value: str, sign: int) -> None:
    count = multiset.get(value, 0) + sign
    if count:
        multiset[value] = count
    else:
        del multiset[value]


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
                      grid: int = HISTOGRAM_GRID) -> "PositionalEstimator":
        return Statistics(document, grid).estimator()

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
    converted to the same key, so both read one cache.  Its estimate
    multiplies per-node cardinalities and per-edge factors that are
    read from the estimator once per instance.
    """

    def __init__(self, pattern: QueryPattern,
                 estimator: CardinalityEstimator) -> None:
        self.pattern = pattern
        self.estimator = estimator
        self._node_cache: dict[int, float] = {}
        self._candidates_cache: dict[int, float] = {}
        self._cluster_cache: dict[int, float] = {}
        self._sizes: list[float] = []
        self._factors: tuple[tuple[int, float | None], ...] | None = None

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
        the edges inside it — 0 once an edge inside it has an endpoint
        without candidates."""
        cached = self._cluster_cache.get(mask)
        if cached is not None:
            return cached
        if not mask:
            raise EstimationError("cluster must be non-empty")
        if not self.pattern.is_connected_mask(mask):
            raise EstimationError(f"cluster {list(mask_nodes(mask))} is "
                                  "not a connected sub-pattern")
        factors = self._factors
        if factors is None:
            factors = self._edge_factors()
        sizes = self._sizes
        cardinality = 1.0
        for node_id in mask_nodes(mask):
            cardinality *= sizes[node_id]
        for ends, factor in factors:
            if mask & ends != ends:
                continue
            if factor is None:
                cardinality = 0.0
                break
            cardinality *= factor
        self._cluster_cache[mask] = cardinality
        return cardinality

    def _edge_factors(self) -> tuple[tuple[int, float | None], ...]:
        """Per edge, in ``pattern.edges`` order, its endpoint mask and
        its selectivity ``pair / (parent_size * child_size)`` — None
        when an endpoint has no candidates; the node cardinalities go
        to ``_sizes``."""
        pattern = self.pattern
        sizes = self._sizes = [self.node(node_id)
                               for node_id in range(len(pattern))]
        factors = []
        for edge, ends in zip(pattern.edges, pattern.edge_masks):
            parent_size = sizes[edge.parent]
            child_size = sizes[edge.child]
            if parent_size == 0 or child_size == 0:
                factors.append((ends, None))
                continue
            pair = self.estimator.edge_cardinality(pattern, edge.parent,
                                                   edge.child)
            factors.append((ends, pair / (parent_size * child_size)))
        self._factors = tuple(factors)
        return self._factors
