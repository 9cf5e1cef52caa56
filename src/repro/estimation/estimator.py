"""Statistics and the cardinality estimators used by the optimizers.

:class:`Statistics` is the one place planning statistics come from:
per-tag counts and distinct-value counts, and the document's
label-path summary (:class:`PathSummary`), all built by one scan and
advanced by commit deltas.  Estimators implement
:class:`CardinalityEstimator`:

* :class:`SummaryEstimator` — what :meth:`Statistics.estimator` hands
  out and every back end plans with: the per-tag counts and the
  label-path summary;
* :class:`ExactEstimator` — the true match count of every connected
  sub-pattern, counted in the document (``whatif --exact``, tests and
  the estimation-error ablation bench);
* :class:`ScaledEstimator` — a what-if over either.

The paper's estimator [17] (positional histograms) and a sampling
estimator live with the experiments, in ``benchmarks/``.

Every estimator answers the candidate-set size of one pattern node and
the result size of one pattern edge.  The result size of a connected
sub-pattern is the per-query :class:`PatternCardinalities`', which asks
its estimator once for a :class:`ClusterCounter`
(:meth:`CardinalityEstimator.cluster_counter`): the summary embeds the
cluster in its paths — exact for predicate-free chains, and 0 exactly
when no path embeds the cluster — and the exact estimator counts it;
an estimator that prices edges one at a time hands out the textbook
attribute-independence product of its node and edge estimates.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import isfinite
from typing import Collection, Iterable, Mapping

from repro.errors import EstimationError
from repro.document.document import XmlDocument
from repro.document.node import NodeRecord, Region
from repro.core.pattern import (Axis, PatternEdge, PatternNode,
                                QueryPattern, mask_nodes, node_mask)

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

    def node_candidates(self, node: PatternNode) -> float:
        """Index postings retrieved for *node* (before predicates)."""
        raise NotImplementedError

    def node_cardinality(self, node: PatternNode) -> float:
        """Candidate-set size of *node* after its predicates."""
        raise NotImplementedError

    def cluster_counter(self, cards: "PatternCardinalities"
                        ) -> "ClusterCounter":
        """The counter of *cards*' connected clusters, asked for once
        per query."""
        raise NotImplementedError

    def edge_cardinality(self, pattern: QueryPattern, parent: int,
                         child: int) -> float:
        """Estimated result size of the single edge (parent, child):
        the two-node cluster of :meth:`cluster_counter`'s counter.  An
        estimator that prices its edges itself overrides this."""
        _checked_edge(pattern, parent, child)
        return PatternCardinalities(pattern, self).cluster_cardinality(
            1 << parent | 1 << child)

    def warm(self, pattern: QueryPattern) -> None:
        """Derive what planning *pattern* reads from this estimator and
        keeps: its nodes' estimates and what its cluster counter reads
        (the summary's steps, the candidate lists, the pair
        estimates)."""
        for node in pattern.nodes:
            self.node_cardinality(node)
        PatternCardinalities(pattern, self)


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

    def cluster_counter(self, cards: "PatternCardinalities"
                        ) -> "_Embedding":
        return _Embedding(cards, self.summary)


class ExactEstimator(CardinalityEstimator):
    """The true match count of every connected sub-pattern, counted in
    *document*: each node's candidates are the nodes its test and
    predicates accept, and :class:`_Counts` counts each cluster's
    matches over them.  A node's candidates are kept across queries;
    cluster counts are kept per query."""

    def __init__(self, document: XmlDocument) -> None:
        self._document = document
        self._candidate_cache: dict[PatternNode, list[Region]] = {}

    def _candidates(self, node: PatternNode) -> list[Region]:
        """The regions of *node*'s candidates, in start order."""
        cached = self._candidate_cache.get(node)
        if cached is None:
            if node.is_wildcard:
                pool: Iterable[NodeRecord] = self._document
            else:
                pool = self._document.nodes_with_tag(node.tag)
            cached = [candidate.region for candidate in pool
                      if node.matches(candidate)]
            self._candidate_cache[node] = cached
        return cached

    def node_candidates(self, node: PatternNode) -> float:
        if node.is_wildcard:
            return float(len(self._document))
        return float(self._document.tag_count(node.tag))

    def node_cardinality(self, node: PatternNode) -> float:
        return float(len(self._candidates(node)))

    def cluster_counter(self, cards: "PatternCardinalities") -> "_Counts":
        return _Counts(cards, [self._candidates(node)
                               for node in cards.pattern.nodes])


class ScaledEstimator(CardinalityEstimator):
    """What-if wrapper: hypothetically scaled per-tag cardinalities.

    Multiplies a base estimator's per-node candidate counts and
    cardinalities by a per-tag factor (``{"item": 10.0}`` models "ten
    times as many items"); edge results scale by both endpoints'
    factors, which leaves per-edge *selectivities* unchanged — the
    hypothesis grows the data, not the structural correlation.  The
    base's cluster counter counts for it, and there a cluster scales
    by the factor of each of its nodes, since a node weighs its
    (scaled) cardinality over its base candidates: the summary's path
    counts, or the exact estimator's candidates; an independence
    product reads the scaled node and edge estimates.  The base estimator
    is never modified, so a what-if analysis can price plans against
    hypothetical statistics without touching the database's
    statistics epoch (:func:`repro.obs.planspace.run_whatif`).
    """

    def __init__(self, base: CardinalityEstimator,
                 tag_scale: Mapping[str, float]) -> None:
        self._base = base
        self._scale = {tag: float(factor)
                       for tag, factor in tag_scale.items()}
        for tag, factor in self._scale.items():
            if not (isfinite(factor) and factor >= 0):
                raise EstimationError(f"tag scale for {tag!r} must be "
                                      f"finite and >= 0, got {factor}")

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

    def cluster_counter(self, cards: "PatternCardinalities"
                        ) -> "ClusterCounter":
        return self._base.cluster_counter(cards)


class PatternCardinalities:
    """Per-query cardinalities: each node's, cached from the estimator,
    and each connected sub-pattern's, estimated here.

    Optimizers instantiate one of these per ``optimize()`` call so that
    repeated lookups during plan enumeration hit a dict instead of
    re-deriving the estimate.  A sub-pattern is keyed by its node mask
    (:func:`~repro.core.pattern.node_mask`), the form the search
    already holds its clusters in; the pricing walk's frozensets are
    converted to the same key, so both read one cache.

    A single node is its cardinality.  A cluster of two or more nodes
    is counted by the cluster counter the estimator is asked for once,
    here (:meth:`CardinalityEstimator.cluster_counter`): the label-path
    summary's embedding (:class:`_Embedding`), the true count
    (:class:`_Counts`), or a pairwise estimator's independence
    product.
    """

    def __init__(self, pattern: QueryPattern,
                 estimator: CardinalityEstimator) -> None:
        self.pattern = pattern
        self.estimator = estimator
        self._node_cache: dict[int, float] = {}
        self._candidates_cache: dict[int, float] = {}
        self._cluster_cache: dict[int, float] = {}
        #: the estimator's cluster counter
        self.counter = estimator.cluster_counter(self)

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
        mask *mask*: a node's cardinality, or the cluster counter's."""
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
        else:
            cardinality = self.counter.cardinality(mask)
        self._cluster_cache[mask] = cardinality
        return cardinality


class ClusterCounter:
    """What an estimator hands :class:`PatternCardinalities` to count
    one pattern's clusters (:meth:`CardinalityEstimator.cluster_counter`):
    :meth:`cardinality` of a connected mask of two or more nodes."""

    def cardinality(self, mask: int) -> float:
        raise NotImplementedError


class _TreeCounter(ClusterCounter):
    """A counter that walks the pattern's tree: :meth:`cardinality` of
    a connected mask is one step from its sub-clusters'.  Built here:
    each node's weight, its cardinality over its entry of *sizes*, the
    nodes the counter counts it over — the selectivity of the
    predicates the counter does not apply, times a what-if's factor —
    and the pattern's tree: per node its parent's bit, and per child
    edge the child with its subtree's mask, in ``pattern.edges``
    order."""

    def __init__(self, cards: PatternCardinalities,
                 sizes: list[int]) -> None:
        self._weights = [cards.node(node_id) / size if size else 0.0
                         for node_id, size in enumerate(sizes)]
        pattern = cards.pattern
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
        for edge in pattern.edges:
            self._children[edge.parent].append((edge.child,
                                                below[edge.child]))

    def _root(self, mask: int) -> int:
        """The node of connected *mask* whose parent is outside it."""
        parent_bit = self._parent_bit
        return next(root for root in mask_nodes(mask)
                    if not mask & parent_bit[root])


class _Embedding(_TreeCounter):
    """One pattern's clusters embedded in a label-path summary.

    A cluster rooted at ``r`` is ``sum_s count(s) * m(r, s)`` over the
    paths ``s`` that match ``r``, where ``m(n, s) = w(n) * prod_c
    sum_t count(t) / count(s) * m(c, t)`` over the cluster's edges
    ``n -> c`` and the paths ``t`` matching ``c`` below ``s`` — its
    children for a ``/`` edge, its descendants for a ``//`` edge — and
    ``w(n)`` is ``n``'s cardinality over the count of its paths: its
    predicate selectivity.  Per node: its paths' counts, its weight
    and, for a non-root node, the rows of its parent edge — per parent
    path ``s``, ``(t index, count(t) / count(s))`` over its own paths
    ``t`` under ``s``.  Per connected mask: ``m(root, s)`` over the
    root's paths, and for a mask hanging off a parent node its reach
    ``sum_t count(t) / count(s) * m(child, t)`` per parent path, the
    factor it contributes to every mask that contains it."""

    def __init__(self, cards: PatternCardinalities,
                 summary: PathSummary) -> None:
        pattern = cards.pattern
        tags = [node.tag for node in pattern.nodes]
        self._counts = [summary.matching_counts(tag) for tag in tags]
        super().__init__(cards, [sum(counts) for counts in self._counts])
        #: per non-root node, the summary's steps from its parent
        self._rows: list[tuple] = [()] * len(pattern)
        for edge in pattern.edges:
            self._rows[edge.child] = summary.steps(
                tags[edge.parent], tags[edge.child], edge.axis)
        self._vectors: dict[int, list[float]] = {}
        self._reaches: dict[int, list[float]] = {}

    def cardinality(self, mask: int) -> float:
        root = self._root(mask)
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


class _Counts(_TreeCounter):
    """One pattern's clusters counted in a document
    (:class:`ExactEstimator`), bottom-up.

    Per connected mask, per candidate of its root in start order, the
    matches of the mask that bind it: the product of the reaches of the
    masks hanging off the root.  A mask's reach is, per candidate of
    its root's parent, the summed matches of the mask's candidates
    inside the parent candidate's region — one ``bisect`` window over
    prefix sums, per level for a ``/`` edge; a descendant ``d`` of
    ``a`` has ``a.start < d.start <= a.end``.  A cluster's count is
    then weighed by each of its nodes' weight: 1, or a what-if's
    factor (:class:`ScaledEstimator`).
    """

    def __init__(self, cards: PatternCardinalities,
                 candidates: list[list[Region]]) -> None:
        super().__init__(cards, [len(regions) for regions in candidates])
        self._candidates = candidates
        #: per non-root node, its parent and whether their edge is ``/``
        self._edges = [(-1, False)] * len(candidates)
        for edge in cards.pattern.edges:
            self._edges[edge.child] = (edge.parent,
                                       edge.axis is Axis.CHILD)
        self._matches: dict[int, list[int]] = {}
        self._reaches: dict[int, list[int]] = {}

    def cardinality(self, mask: int) -> float:
        total = float(sum(self._per_candidate(self._root(mask), mask)))
        for node_id in mask_nodes(mask):
            total *= self._weights[node_id]
        return total

    def _per_candidate(self, node_id: int, mask: int) -> list[int]:
        """Per candidate of *node_id*, in start order, the matches of
        the cluster *mask* (rooted at *node_id*) that bind it."""
        matches = self._matches.get(mask)
        if matches is None:
            matches = [1] * len(self._candidates[node_id])
            for child, below in self._children[node_id]:
                inside = mask & below
                if inside:
                    reach = (self._reaches.get(inside)
                             or self._reach(child, inside))
                    matches = [count * factor
                               for count, factor in zip(matches, reach)]
            self._matches[mask] = matches
        return matches

    def _reach(self, child: int, inside: int) -> list[int]:
        parent, levelled = self._edges[child]
        # per level (one group for a // edge): starts, prefix sums
        groups: dict[int | None, tuple[list[int], list[int]]] = {}
        for region, count in zip(self._candidates[child],
                                 self._per_candidate(child, inside)):
            starts, prefix = groups.setdefault(
                region.level if levelled else None, ([], [0]))
            starts.append(region.start)
            prefix.append(prefix[-1] + count)
        reach = []
        for region in self._candidates[parent]:
            group = groups.get(region.level + 1 if levelled else None)
            if group is None:
                reach.append(0)
                continue
            starts, prefix = group
            reach.append(prefix[bisect_right(starts, region.end)]
                         - prefix[bisect_right(starts, region.start)])
        self._reaches[inside] = reach
        return reach
