"""Cardinality estimation for structural joins.

The paper's optimizer obtains intermediate-result size estimates from
*positional histograms* (Wu, Patel, Jagadish — EDBT 2002).  This
package reimplements that technique
(:class:`~repro.estimation.histogram.PositionalHistogram`), keeps one
set of them per document
(:class:`~repro.estimation.estimator.Statistics`) and wraps it in the
:class:`~repro.estimation.estimator.CardinalityEstimator` interface
the optimizers consume.  An exact estimator is provided for
calibration and for tests that need ground truth.
"""

from repro.estimation.histogram import PositionalHistogram, LevelHistogram
from repro.estimation.estimator import (CardinalityEstimator,
                                        ExactEstimator,
                                        PositionalEstimator,
                                        Statistics,
                                        TagStatistics)
from repro.estimation.sampling import SamplingEstimator

__all__ = [
    "PositionalHistogram",
    "LevelHistogram",
    "CardinalityEstimator",
    "ExactEstimator",
    "PositionalEstimator",
    "SamplingEstimator",
    "Statistics",
    "TagStatistics",
]
