"""Statistics and the cardinality estimators used by the optimizers.

:class:`Statistics` is the one place planning statistics come from:
per-tag counts and distinct-value counts, and the document's
label-path summary (:class:`PathSummary`), all built by one scan and
advanced by commit deltas.  Estimators implement
:class:`CardinalityEstimator`:

* :class:`SummaryEstimator` — what :meth:`Statistics.estimator` hands
  out and every back end plans with: the per-tag counts and the
  label-path summary;
* :class:`PositionalEstimator` — the paper's estimator [17]: positional
  + level histograms per tag, built from a document in one scan and
  never changed, for the experiments that reproduce the paper;
* :class:`ExactEstimator` — exact pairwise structural-join counts
  computed from the data (used for calibration, tests, and the
  estimation-error ablation bench).

Every estimator answers the candidate-set size of one pattern node and
the result size of one pattern edge.  The result size of a connected
sub-pattern is the per-query :class:`PatternCardinalities`': with the
label-path summary it embeds the cluster in the summary's paths —
exact for predicate-free chains, and 0 exactly when no path embeds the
cluster; without one (the paper's estimator [17], the exact and the
sampling estimators) it combines the node and edge estimates under the
textbook attribute-independence assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping

from repro.errors import EstimationError
from repro.document.document import XmlDocument
from repro.document.node import NodeRecord, Region
from repro.core.pattern import (Axis, PatternEdge, PatternNode,
                                QueryPattern, mask_nodes, node_mask)
from repro.estimation.histogram import (HISTOGRAM_GRID, LevelHistogram,
                                        PositionalHistogram)

WILDCARD = "*"

#: Fallback selectivity for range predicates, where distinct-value
#: counts say nothing about the cut point.
RANGE_PREDICATE_SELECTIVITY = 1.0 / 3.0


#: the parent of a root path
NO_PATH = -1


class PathSummary:
    """The document's label paths, each with its node count: the
    strong DataGuide (the 1-index of a tree) of *Indices in XML
    Databases*.

    A path is one root-to-node tag sequence.  Per path id: ``tags``
    its last tag, ``parents`` the path it extends (:data:`NO_PATH`
    for a root path), ``counts`` the nodes on it; ids are handed out
    as paths appear.  Estimates sum over paths by label path
    (:meth:`matching`).  A summary is never changed once an estimator
    holds it: :meth:`advanced` returns a new one, so a held estimator
    keeps the summary it was handed.
    """

    def __init__(self) -> None:
        self.tags: dict[int, str] = {}
        self.parents: dict[int, int] = {}
        self.counts: dict[int, int] = {}
        self._ids: dict[tuple[int, str], int] = {}
        self._next = 0
        # derived on first read: a held summary never changes
        self._by_tag: dict[str, tuple[int, ...]] | None = None
        self._matching_counts: dict[str, tuple[int, ...]] = {}
        self._steps: dict[tuple[str, str, Axis], tuple] = {}

    def path(self, parent: int, tag: str) -> int:
        """The id of path *parent* extended by *tag*, made (with no
        nodes) if new."""
        path = self._ids.get((parent, tag))
        if path is None:
            path = self._ids[parent, tag] = self._next
            self._next += 1
            self.tags[path] = tag
            self.parents[path] = parent
            self.counts[path] = 0
        return path

    def advanced(self, added: Collection[NodeRecord],
                 removed: Collection[NodeRecord],
                 document: XmlDocument) -> "PathSummary":
        """This summary after one commit's node delta, as a new
        summary; *document* is the document the commit published.

        A removed node's path is its parent's path (a removed parent's,
        or else the published parent's, whose ancestors a commit never
        changes) extended by its tag; an added node's is read off the
        published document.  A path left without nodes is dropped.
        Work is the delta times the depth, plus a copy of the paths.
        """
        summary = PathSummary()
        summary.tags = dict(self.tags)
        summary.parents = dict(self.parents)
        counts = summary.counts = dict(self.counts)
        summary._ids = dict(self._ids)
        summary._next = self._next
        published: dict[int, int] = {}
        gone: dict[int, int] = {}
        for node in sorted(removed, key=NodeRecord.sort_key):
            parent = gone.get(node.parent_id)
            if parent is None:
                parent = summary._path_of(node.parent_id, document,
                                          published)
            path = gone[node.node_id] = summary.path(parent, node.tag)
            counts[path] -= 1
        for node in added:
            counts[summary._path_of(node.node_id, document,
                                    published)] += 1
        for path, count in list(counts.items()):
            if not count:
                del summary._ids[summary.parents.pop(path),
                                 summary.tags.pop(path)]
                del counts[path]
        return summary

    def _path_of(self, node_id: int, document: XmlDocument,
                 known: dict[int, int]) -> int:
        """The path of node *node_id* of *document* (:data:`NO_PATH`
        for -1), walking up to the nearest node in *known* and noting
        every node passed there."""
        chain = []
        while node_id >= 0 and node_id not in known:
            node = document.node(node_id)
            chain.append(node)
            node_id = node.parent_id
        path = known.get(node_id, NO_PATH)
        for node in reversed(chain):
            path = known[node.node_id] = self.path(path, node.tag)
        return path

    def matching(self, tag: str) -> tuple[int, ...]:
        """The paths ending in *tag* (every path for ``"*"``) in
        summation order: by label path, so a summary advanced by deltas
        sums exactly as a fresh scan of its document does."""
        by_tag = self._by_tag
        if by_tag is None:
            names = self._names()
            ordered = sorted(self.tags, key=names.__getitem__)
            grouped: dict[str, list[int]] = {WILDCARD: ordered}
            for path in ordered:
                grouped.setdefault(self.tags[path], []).append(path)
            by_tag = self._by_tag = {key: tuple(paths)
                                     for key, paths in grouped.items()}
        return by_tag.get(tag, ())

    def matching_counts(self, tag: str) -> tuple[int, ...]:
        """The node counts of :meth:`matching`'s paths, in its order."""
        counts = self._matching_counts.get(tag)
        if counts is None:
            counts = self._matching_counts[tag] = tuple(
                self.counts[path] for path in self.matching(tag))
        return counts

    def steps(self, ancestor: str, tag: str, axis: Axis
              ) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per path ``s`` matching *ancestor*, in :meth:`matching`
        order, ``(index, count(t) / count(s))`` for each path ``t``
        matching *tag* — by its index there — that is a child of ``s``
        (``axis`` CHILD) or a proper descendant."""
        key = (ancestor, tag, axis)
        steps = self._steps.get(key)
        if steps is None:
            counts, parents = self.counts, self.parents
            sources = self.matching(ancestor)
            index = {path: i for i, path in enumerate(sources)}
            rows: list[list[tuple[int, float]]] = [[] for _ in sources]
            for j, path in enumerate(self.matching(tag)):
                above = parents[path]
                while above != NO_PATH:
                    i = index.get(above)
                    if i is not None:
                        rows[i].append((j, counts[path] / counts[above]))
                    if axis is Axis.CHILD:
                        break
                    above = parents[above]
            steps = self._steps[key] = tuple(map(tuple, rows))
        return steps

    def labels(self) -> dict[tuple[str, ...], int]:
        """Label path (root tag first) -> node count: what two summaries
        of one document agree on whatever their ids."""
        names = self._names()
        return {names[path]: count for path, count in self.counts.items()}

    def _names(self) -> dict[int, tuple[str, ...]]:
        # a path is made after the path it extends
        names: dict[int, tuple[str, ...]] = {NO_PATH: ()}
        for path, tag in self.tags.items():
            names[path] = names[self.parents[path]] + (tag,)
        return names


@dataclass
class TagStatistics:
    """Per-tag summary: node count and distinct-value counts."""

    tag: str
    count: int = 0
    distinct_texts: int = 0
    distinct_attribute_values: dict[str, int] = field(default_factory=dict)

    def clone(self) -> "TagStatistics":
        """Deep-enough copy for copy-on-write statistics deltas."""
        return TagStatistics(self.tag, self.count, self.distinct_texts,
                             dict(self.distinct_attribute_values))


class Statistics:
    """The statistics the optimizer plans with: one fold.

    One scan in document order builds the per-tag entries and the
    label-path summary; a commit's node delta advances them
    (:meth:`apply_delta`), copy-on-write per touched tag and per
    summary so that estimators handed out earlier keep reading frozen
    statistics; :meth:`estimator` is what every back end plans with.
    The special key ``"*"`` aggregates all nodes, supporting wildcard
    pattern nodes.

    No statistic depends on the label space (``root.end``), so every
    commit, one that relabels from the root included, is folded in as
    its delta, and the statistics always equal a fresh scan of their
    document.

    Distinct-value counts are read off value *multisets*, which a
    removal can decrement (a plain set cannot survive one).
    """

    def __init__(self, document: XmlDocument) -> None:
        #: tag -> entry; ``"*"`` first, the others in document order
        self.entries: dict[str, TagStatistics] = {
            WILDCARD: TagStatistics(WILDCARD)}
        # value -> multiplicity, per tag (and per attribute name)
        self._texts: dict[str, dict[str, int]] = {}
        self._attributes: dict[str, dict[str, dict[str, int]]] = {}
        #: the label paths: replaced, never changed, by a delta
        self.summary = summary = PathSummary()
        ids, counts = summary._ids, summary.counts
        # (end, path) of the open ancestors of the current node
        open_paths: list[tuple[int, int]] = [(document.root.end + 1,
                                              NO_PATH)]
        for node in document:
            self._add(node)
            region = node.region
            while open_paths[-1][0] < region.start:
                open_paths.pop()
            key = (open_paths[-1][1], node.tag)
            path = ids.get(key)
            if path is None:
                path = summary.path(*key)
            counts[path] += 1
            open_paths.append((region.end, path))
        for tag in self.entries:
            self._refresh_distinct(tag)

    def apply_delta(self, added: Collection[NodeRecord],
                    removed: Collection[NodeRecord],
                    document: XmlDocument) -> None:
        """Absorb one commit's node delta; *document* is the document
        the commit published.

        Touched tag entries (and the ``"*"`` aggregate) are cloned
        before they change and the summary is replaced by its advanced
        copy, so previously handed-out estimators keep a frozen view;
        untouched tags share their entries.
        """
        touched = {node.tag for node in added} | {
            node.tag for node in removed}
        if not touched:
            return
        self.summary = self.summary.advanced(added, removed, document)
        touched.add(WILDCARD)
        for tag in touched:
            entry = self.entries.get(tag)
            if entry is not None:
                self.entries[tag] = entry.clone()
        for node in removed:
            for key in (node.tag, WILDCARD):
                self.entries[key].count -= 1
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

    def estimator(self) -> "SummaryEstimator":
        """An estimator over the current entries and label-path
        summary, which it keeps reading whatever later deltas do."""
        return SummaryEstimator(self.entries, self.summary)

    def _add(self, node: NodeRecord) -> None:
        for key in (node.tag, WILDCARD):
            entry = self.entries.get(key)
            if entry is None:
                entry = self.entries[key] = TagStatistics(key)
            entry.count += 1
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

    #: the label paths :class:`PatternCardinalities` embeds clusters
    #: in; None: clusters are the per-edge independence product
    summary: PathSummary | None = None

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

    def warm(self, pattern: QueryPattern) -> None:
        """Derive what planning *pattern* reads from this estimator and
        keeps: its nodes' estimates and, per edge, the pair estimate —
        or, with a label-path summary, the summary's steps instead."""
        for node in pattern.nodes:
            self.node_cardinality(node)
        summary = self.summary
        for edge in pattern.edges:
            if summary is None:
                self.edge_cardinality(pattern, edge.parent, edge.child)
            else:
                summary.steps(pattern.node(edge.parent).tag,
                              pattern.node(edge.child).tag, edge.axis)


def _checked_edge(pattern: QueryPattern, parent: int,
                  child: int) -> PatternEdge:
    """The edge (*parent*, *child*) of *pattern*; raises if it is not
    one."""
    edge = pattern.edge_between(parent, child)
    if edge is None or (edge.parent, edge.child) != (parent, child):
        raise EstimationError(
            f"({parent}, {child}) is not an edge of the pattern")
    return edge


class TagCountEstimator(CardinalityEstimator):
    """Node estimates read off per-tag entries: a tag's node count,
    times its predicates' selectivity."""

    def __init__(self, stats: Mapping[str, TagStatistics]) -> None:
        self._stats = dict(stats)

    def node_candidates(self, node: PatternNode) -> float:
        entry = self._stats.get(WILDCARD if node.is_wildcard else node.tag)
        return float(entry.count) if entry else 0.0

    def node_cardinality(self, node: PatternNode) -> float:
        candidates = self.node_candidates(node)
        if candidates == 0.0:
            return 0.0
        return candidates * _predicate_selectivity(node, self._stats)


class SummaryEstimator(TagCountEstimator):
    """The estimator every back end plans with
    (:meth:`Statistics.estimator`): per-tag entries and the label-path
    summary, which prices every cluster."""

    def __init__(self, stats: Mapping[str, TagStatistics],
                 summary: PathSummary) -> None:
        super().__init__(stats)
        self.summary = summary

    def edge_cardinality(self, pattern: QueryPattern, parent: int,
                         child: int) -> float:
        """The summary's estimate of the two-node cluster."""
        _checked_edge(pattern, parent, child)
        return PatternCardinalities(pattern, self).cluster_cardinality(
            1 << parent | 1 << child)


class PositionalEstimator(TagCountEstimator):
    """The paper's estimator [17]: per tag (and ``"*"``) a positional
    and a level histogram, built by :meth:`from_document` and never
    changed; clusters combine its edges under independence."""

    def __init__(self, stats: Mapping[str, TagStatistics],
                 positions: Mapping[str, PositionalHistogram],
                 levels: Mapping[str, LevelHistogram]) -> None:
        super().__init__(stats)
        self._positions = positions
        self._levels = levels
        # Pairwise histogram joins are the expensive part of estimation;
        # they depend only on (node tests, axis), so memoize across
        # queries the way a real system caches derived statistics.
        self._edge_cache: dict[tuple[PatternNode, PatternNode, Axis],
                               float] = {}

    @classmethod
    def from_document(cls, document: XmlDocument,
                      grid: int = HISTOGRAM_GRID) -> "PositionalEstimator":
        """The paper's estimator over *document*: the per-tag entries of
        its statistics, and histograms over its label space
        ``root.end + 1`` filled in one scan in document order — the
        order a join estimate sums cells in, so an estimate depends on
        the document alone."""
        space = document.root.end + 1
        positions: dict[str, PositionalHistogram] = {}
        levels: dict[str, LevelHistogram] = {}
        for node in document:
            for key in (node.tag, WILDCARD):
                histogram = positions.get(key)
                if histogram is None:
                    histogram = positions[key] = PositionalHistogram(
                        space, grid)
                    levels[key] = LevelHistogram()
                histogram.add(node.region)
                levels[key].add(node.level)
        return cls(Statistics(document).entries, positions, levels)

    def edge_cardinality(self, pattern: QueryPattern, parent: int,
                         child: int) -> float:
        edge = _checked_edge(pattern, parent, child)
        parent_node = pattern.node(parent)
        child_node = pattern.node(child)
        key = (parent_node, child_node, edge.axis)
        cached = self._edge_cache.get(key)
        if cached is not None:
            return cached
        parent_tag = WILDCARD if parent_node.is_wildcard else parent_node.tag
        child_tag = WILDCARD if child_node.is_wildcard else child_node.tag
        ancestors = self._positions.get(parent_tag)
        descendants = self._positions.get(child_tag)
        if ancestors is None or descendants is None:
            estimate = 0.0
        else:
            estimate = ancestors.estimate_containment_join(descendants)
            if edge.axis is Axis.CHILD:
                estimate *= self._levels[parent_tag].parent_child_fraction(
                    self._levels[child_tag])
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
        edge = _checked_edge(pattern, parent, child)
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
    hypothesis grows the data, not the structural correlation; on the
    base's label-path summary a cluster scales by the factor of each of
    its nodes, since a node's weight there is its (scaled) cardinality
    over the base's path counts.  The base estimator is never
    modified, so a what-if analysis can price plans against
    hypothetical statistics without touching the database's statistics
    epoch (:func:`repro.obs.planspace.run_whatif`).
    """

    def __init__(self, base: CardinalityEstimator,
                 tag_scale: Mapping[str, float]) -> None:
        self._base = base
        self.summary = base.summary
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
    and each connected sub-pattern's, estimated here.

    Optimizers instantiate one of these per ``optimize()`` call so that
    repeated lookups during plan enumeration hit a dict instead of
    re-deriving the estimate.  A sub-pattern is keyed by its node mask
    (:func:`~repro.core.pattern.node_mask`), the form the search
    already holds its clusters in; the pricing walk's frozensets are
    converted to the same key, so both read one cache.

    With the estimator's label-path summary a cluster rooted at ``r``
    is ``sum_s count(s) * m(r, s)`` over the paths ``s`` that match
    ``r``, where ``m(n, s) = w(n) * prod_c sum_t count(t) / count(s) *
    m(c, t)`` over the cluster's edges ``n -> c`` and the paths ``t``
    matching ``c`` below ``s`` — its children for a ``/`` edge, its
    descendants for a ``//`` edge — and ``w(n)`` is ``n``'s
    cardinality over the count of its paths: its predicate
    selectivity.  Each node's paths and weight and each edge's
    transitions are prepared once per instance, and each connected
    mask's ``m`` vector over its root's paths is kept, so a cluster
    costs one step from its sub-clusters'.  A single node is its
    cardinality.  Without a summary a cluster multiplies per-node
    cardinalities and per-edge factors read from the estimator once
    per instance: the independence combination.
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
        self._embedding: _Embedding | None = None

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
        mask *mask*: its embedding in the label-path summary, or
        without one ``prod(|n|) * prod(sel(e))`` over its nodes and the
        edges inside it — 0 once an edge inside it has an endpoint
        without candidates."""
        cached = self._cluster_cache.get(mask)
        if cached is not None:
            return cached
        if not mask:
            raise EstimationError("cluster must be non-empty")
        if not self.pattern.is_connected_mask(mask):
            raise EstimationError(f"cluster {list(mask_nodes(mask))} is "
                                  "not a connected sub-pattern")
        if not mask & (mask - 1):
            cardinality = self.node(mask.bit_length() - 1)
        elif self.estimator.summary is not None:
            embedding = self._embedding
            if embedding is None:
                embedding = self._embedding = _Embedding(
                    self, self.estimator.summary)
            cardinality = embedding.cardinality(mask)
        else:
            cardinality = self._product(mask)
        self._cluster_cache[mask] = cardinality
        return cardinality

    def _product(self, mask: int) -> float:
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
                return 0.0
            cardinality *= factor
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


class _Embedding:
    """One pattern's clusters embedded in a label-path summary (see
    :class:`PatternCardinalities`).  Per node: its paths' counts, its
    weight and, for a non-root node, the rows of its parent edge —
    per parent path ``s``, ``(t index, count(t) / count(s))`` over its
    own paths ``t`` under ``s``.  Per connected mask: ``m(root, s)``
    over the root's paths, and for a mask hanging off a parent node
    its reach ``sum_t count(t) / count(s) * m(child, t)`` per parent
    path, the factor it contributes to every mask that contains it."""

    def __init__(self, cards: PatternCardinalities,
                 summary: PathSummary) -> None:
        pattern = cards.pattern
        tags = [node.tag for node in pattern.nodes]
        self._counts = [summary.matching_counts(tag) for tag in tags]
        self._weights = []
        for node_id, counts in enumerate(self._counts):
            total = sum(counts)
            self._weights.append(cards.node(node_id) / total if total
                                 else 0.0)
        size = len(pattern)
        parent_of = [-1] * size
        for edge in pattern.edges:
            parent_of[edge.child] = edge.parent
        #: per node, the bit of its parent (0 for the root)
        self._parent_bit = [0 if parent < 0 else 1 << parent
                            for parent in parent_of]
        # per node, the mask of its subtree
        below = [1 << node_id for node_id in range(size)]
        for node_id in range(size):
            above = parent_of[node_id]
            while above >= 0:
                below[above] |= 1 << node_id
                above = parent_of[above]
        #: per node, ``(child, the child's subtree mask)`` per child
        self._children: list[list[tuple[int, int]]] = [
            [] for _ in range(size)]
        #: per non-root node, the summary's steps from its parent
        self._rows: list[tuple] = [()] * size
        for edge in pattern.edges:
            parent, child = edge.parent, edge.child
            self._children[parent].append((child, below[child]))
            self._rows[child] = summary.steps(tags[parent], tags[child],
                                              edge.axis)
        self._vectors: dict[int, list[float]] = {}
        self._reaches: dict[int, list[float]] = {}

    def cardinality(self, mask: int) -> float:
        parent_bit = self._parent_bit
        for root in mask_nodes(mask):
            if not mask & parent_bit[root]:
                break
        total = 0.0
        for count, value in zip(self._counts[root],
                                self._vector(root, mask)):
            total += count * value
        return total

    def _vector(self, node_id: int, mask: int) -> list[float]:
        vector = self._vectors.get(mask)
        if vector is None:
            for child, below in self._children[node_id]:
                inside = mask & below
                if inside:
                    reach = (self._reaches.get(inside)
                             or self._reach(child, inside))
                    if vector is None:
                        weight = self._weights[node_id]
                        vector = [weight * factor for factor in reach]
                    else:
                        vector = [value * factor
                                  for value, factor in zip(vector, reach)]
            if vector is None:
                vector = ([self._weights[node_id]]
                          * len(self._counts[node_id]))
            self._vectors[mask] = vector
        return vector

    def _reach(self, child: int, inside: int) -> list[float]:
        inner = self._vector(child, inside)
        reach = []
        for row in self._rows[child]:
            total = 0.0
            for j, fraction in row:
                total += fraction * inner[j]
            reach.append(total)
        self._reaches[inside] = reach
        return reach
