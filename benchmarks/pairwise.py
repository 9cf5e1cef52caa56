"""Pairwise estimators: a price per edge, clusters combined under
independence.

The paper's estimator (:class:`benchmarks.histogram.PositionalEstimator`)
and the sampling estimator of the ablation
(:class:`benchmarks.sampling.SamplingEstimator`) each price one pattern
edge at a time.  :class:`PairwiseEstimator` holds what they share: the
edge checks, a cache of edge estimates keyed by ``(node, node, axis)``
— they depend on nothing else, so the cache outlives a query the way a
real system caches derived statistics — and the counter they hand
:class:`~repro.estimation.estimator.PatternCardinalities`,
:class:`Product`: the textbook attribute-independence combination.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.pattern import Axis, PatternNode, QueryPattern, mask_nodes
from repro.estimation.estimator import (ClusterCounter, PatternCardinalities,
                                        TagCountEstimator, TagStatistics,
                                        _checked_edge,
                                        _predicate_selectivity)


class PairwiseEstimator(TagCountEstimator):
    """An estimator that prices each edge on its own (:meth:`_pair`) and
    combines a cluster's edges under independence (:class:`Product`)."""

    def __init__(self, stats: Mapping[str, TagStatistics]) -> None:
        super().__init__(stats)
        self._edge_cache: dict[tuple[PatternNode, PatternNode, Axis],
                               float] = {}

    def _pair(self, parent: PatternNode, child: PatternNode,
              axis: Axis) -> float:
        """The estimated pairs of *parent* and *child* nodes related by
        *axis*, before either node's predicates."""
        raise NotImplementedError

    def edge_cardinality(self, pattern: QueryPattern, parent: int,
                         child: int) -> float:
        edge = _checked_edge(pattern, parent, child)
        parent_node = pattern.node(parent)
        child_node = pattern.node(child)
        key = (parent_node, child_node, edge.axis)
        estimate = self._edge_cache.get(key)
        if estimate is None:
            estimate = self._pair(parent_node, child_node, edge.axis)
            estimate *= _predicate_selectivity(parent_node, self._stats)
            estimate *= _predicate_selectivity(child_node, self._stats)
            self._edge_cache[key] = estimate
        return estimate

    def cluster_counter(self, cards: PatternCardinalities) -> "Product":
        return Product(cards)


class Product(ClusterCounter):
    """One pattern's clusters under independence: ``prod(|n|) *
    prod(sel(e))`` over a cluster's nodes and the edges inside it, where
    ``sel(e)`` is the edge's pair estimate over its endpoints' sizes —
    0 once an edge inside it has an endpoint without candidates.

    Sizes are *cards*' node cardinalities and pairs its estimator's
    edge estimates, both read here, once per query: a what-if
    (:class:`~repro.estimation.estimator.ScaledEstimator`) over a
    pairwise estimator scales both."""

    def __init__(self, cards: PatternCardinalities) -> None:
        pattern = cards.pattern
        self._sizes = sizes = [cards.node(node_id)
                               for node_id in range(len(pattern))]
        #: per edge, in ``pattern.edges`` order, its endpoint mask and
        #: its selectivity — None when an endpoint has no candidates
        self._factors: list[tuple[int, float | None]] = []
        for edge, ends in zip(pattern.edges, pattern.edge_masks):
            parent_size = sizes[edge.parent]
            child_size = sizes[edge.child]
            if parent_size == 0 or child_size == 0:
                self._factors.append((ends, None))
                continue
            pair = cards.estimator.edge_cardinality(pattern, edge.parent,
                                                    edge.child)
            self._factors.append((ends, pair / (parent_size * child_size)))

    def cardinality(self, mask: int) -> float:
        sizes = self._sizes
        cardinality = 1.0
        for node_id in mask_nodes(mask):
            cardinality *= sizes[node_id]
        for ends, factor in self._factors:
            if mask & ends != ends:
                continue
            if factor is None:
                return 0.0
            cardinality *= factor
        return cardinality
