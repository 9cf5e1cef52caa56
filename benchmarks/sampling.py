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
from repro.core.pattern import Axis, PatternNode
from repro.estimation.estimator import Statistics

from benchmarks.pairwise import PairwiseEstimator


class SamplingEstimator(PairwiseEstimator):
    """Estimates edge cardinalities from a systematic candidate sample;
    clusters combine them under independence."""

    def __init__(self, document: XmlDocument, sample_size: int = 64) -> None:
        if sample_size < 1:
            raise EstimationError("sample size must be >= 1")
        super().__init__(Statistics(document).entries)
        self._document = document
        self.sample_size = sample_size

    def _tag_nodes(self, node: PatternNode) -> list[NodeRecord]:
        if node.is_wildcard:
            return list(self._document.nodes)
        return self._document.nodes_with_tag(node.tag)

    def _pair(self, parent: PatternNode, child: PatternNode,
              axis: Axis) -> float:
        ancestors = self._tag_nodes(parent)
        descendants = self._tag_nodes(child)
        if not ancestors or not descendants:
            return 0.0
        starts = [node.start for node in descendants]
        step = max(len(ancestors) // self.sample_size, 1)
        sample = ancestors[::step]
        matched = 0
        for ancestor in sample:
            matched += self._count_matches(ancestor.region, descendants,
                                           starts, axis)
        return matched / len(sample) * len(ancestors)
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
