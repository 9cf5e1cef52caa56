"""Cardinality estimation for structural joins.

Every database keeps one :class:`~repro.estimation.estimator.Statistics`
per document — per-tag counts, distinct-value counts and the
label-path summary, built by one scan and advanced by commit deltas —
and plans on the
:class:`~repro.estimation.estimator.SummaryEstimator` it hands out.
The paper's optimizer obtained its estimates from *positional
histograms* (Wu, Patel, Jagadish — EDBT 2002); this package
reimplements them
(:class:`~repro.estimation.histogram.PositionalHistogram`) as
:class:`~repro.estimation.estimator.PositionalEstimator`, built from a
document for the experiments that reproduce the paper.  All of them
implement the
:class:`~repro.estimation.estimator.CardinalityEstimator` interface
the optimizers consume.  :class:`~repro.estimation.estimator.ExactEstimator`
counts every connected sub-pattern's true matches in the document:
``whatif --exact`` and the tests plan with it.
"""

from repro.estimation.histogram import PositionalHistogram, LevelHistogram
from repro.estimation.estimator import (CardinalityEstimator,
                                        ExactEstimator,
                                        PositionalEstimator,
                                        Statistics,
                                        SummaryEstimator,
                                        TagStatistics)

__all__ = [
    "PositionalHistogram",
    "LevelHistogram",
    "CardinalityEstimator",
    "ExactEstimator",
    "PositionalEstimator",
    "Statistics",
    "SummaryEstimator",
    "TagStatistics",
]
