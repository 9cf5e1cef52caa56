"""Sampling-based cardinality estimation, for the estimator ablation.

A third estimator alongside the positional histograms and the exact
counts: edge cardinalities are estimated by drawing a systematic
sample of the ancestor candidate list and counting, for each sampled
ancestor, its matching descendants with two binary searches over the
(document-ordered) descendant list.  Extrapolating the per-ancestor
average gives the join size.

Compared to positional histograms this trades statistics-build time
(none) for estimation-time work proportional to the sample size, and
is typically far more accurate on skewed nesting — which makes it the
interesting second axis of the estimation-quality ablation.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import EstimationError
from repro.document.document import XmlDocument
from repro.document.node import NodeRecord, Region
from repro.core.pattern import Axis, PatternNode, QueryPattern
from repro.estimation.estimator import (Statistics, TagCountEstimator,
                                        _checked_edge,
                                        _predicate_selectivity)


class SamplingEstimator(TagCountEstimator):
    """Estimates edge cardinalities from a systematic candidate sample."""

    def __init__(self, document: XmlDocument, sample_size: int = 64) -> None:
        if sample_size < 1:
            raise EstimationError("sample size must be >= 1")
        super().__init__(Statistics(document).entries)
        self._document = document
        self.sample_size = sample_size
        self._edge_cache: dict[tuple[PatternNode, PatternNode, Axis],
                               float] = {}

    # -- node-level ---------------------------------------------------------

    def _tag_nodes(self, node: PatternNode) -> list[NodeRecord]:
        if node.is_wildcard:
            return list(self._document.nodes)
        return self._document.nodes_with_tag(node.tag)

    # -- edge-level ------------------------------------------------------------

    def edge_cardinality(self, pattern: QueryPattern, parent: int,
                         child: int) -> float:
        edge = _checked_edge(pattern, parent, child)
        parent_node = pattern.node(parent)
        child_node = pattern.node(child)
        key = (parent_node, child_node, edge.axis)
        cached = self._edge_cache.get(key)
        if cached is not None:
            return cached

        ancestors = self._tag_nodes(parent_node)
        descendants = self._tag_nodes(child_node)
        if not ancestors or not descendants:
            self._edge_cache[key] = 0.0
            return 0.0
        starts = [node.start for node in descendants]
        step = max(len(ancestors) // self.sample_size, 1)
        sample = ancestors[::step]
        matched = 0
        for ancestor in sample:
            matched += self._count_matches(ancestor.region, descendants,
                                           starts, edge.axis)
        estimate = matched / len(sample) * len(ancestors)
        estimate *= _predicate_selectivity(parent_node, self._stats)
        estimate *= _predicate_selectivity(child_node, self._stats)
        self._edge_cache[key] = estimate
        return estimate

    @staticmethod
    def _count_matches(ancestor: Region, descendants: list[NodeRecord],
                       starts: list[int], axis: Axis) -> int:
        """Descendants of *ancestor* in a document-ordered list.

        Containment is a contiguous start-position range, so two
        bisections bound it; parent/child additionally filters on
        level.
        """
        low = bisect_right(starts, ancestor.start)
        high = bisect_right(starts, ancestor.end)
        if axis is Axis.DESCENDANT:
            return high - low
        target_level = ancestor.level + 1
        return sum(1 for node in descendants[low:high]
                   if node.level == target_level)
