"""Cardinality estimation for structural joins.

Every database keeps one :class:`~repro.estimation.estimator.Statistics`
per document — per-tag counts, distinct-value counts and the
label-path summary, built by one scan and advanced by commit deltas —
and plans on the
:class:`~repro.estimation.estimator.SummaryEstimator` it hands out.
:class:`~repro.estimation.estimator.ExactEstimator` counts every
connected sub-pattern's true matches in the document: ``whatif
--exact`` and the tests plan with it.  Both implement the
:class:`~repro.estimation.estimator.CardinalityEstimator` interface
the optimizers consume, and each hands the optimizers one cluster
counter per query.  The paper's optimizer obtained its estimates from
*positional histograms* (Wu, Patel, Jagadish — EDBT 2002); that
estimator lives with the experiments that reproduce the paper, in
``benchmarks/histogram.py``, and ``pytest benchmarks`` regenerates the
paper's tables with it.
"""

from repro.estimation.estimator import (CardinalityEstimator,
                                        ExactEstimator,
                                        Statistics,
                                        SummaryEstimator,
                                        TagStatistics)

__all__ = [
    "CardinalityEstimator",
    "ExactEstimator",
    "Statistics",
    "SummaryEstimator",
    "TagStatistics",
]
