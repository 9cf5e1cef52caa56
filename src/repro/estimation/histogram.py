"""Positional histograms for structural-join size estimation.

A :class:`PositionalHistogram` for tag ``T`` is a 2-D grid over the
``(start, end)`` plane of the document's position space.  Each element
with region ``(s, e)`` increments the cell containing ``(s, e)``.
Since ``e >= s``, only the upper triangle is populated.  The
ancestor/descendant join size between two tags is estimated by summing,
over all cell pairs, the expected number of (ancestor, descendant)
pairs under a uniform-within-cell assumption — the technique of
"Estimating Answer Sizes for XML Queries" (EDBT 2002), which the paper
uses for all its experiments.

A companion :class:`LevelHistogram` records the distribution of node
depths and is used to refine ancestor/descendant estimates into
parent/child estimates.

Both belong to the paper's estimator alone:
:meth:`~repro.estimation.estimator.PositionalEstimator.from_document`
fills one of each per tag in one scan of a document, over its label
space ``root.end + 1``, and nothing changes them afterwards.  The
database plans its own queries on the label-path summary instead.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import EstimationError
from repro.document.node import Region

#: grid resolution of the paper's estimator's positional histograms;
#: the grid ablation is the one caller of ``from_document(grid=)``
HISTOGRAM_GRID = 16


def _overlap_uniform_less(a_low: float, a_high: float,
                          b_low: float, b_high: float) -> float:
    """P(X < Y) for X ~ U[a_low, a_high), Y ~ U[b_low, b_high).

    Computed as the average of ``P(X < y) = clamp((y - a_low) /
    a_width)`` over the Y interval.  Zero-width intervals degrade to
    point masses.
    """
    a_width = a_high - a_low
    b_width = b_high - b_low
    if b_width <= 0:
        if a_width <= 0:
            return 1.0 if a_low < b_low else 0.0
        return min(max((b_low - a_low) / a_width, 0.0), 1.0)
    if a_width <= 0:
        return min(max((b_high - a_low) / b_width, 0.0), 1.0)
    total = 0.0
    # segment of Y where P(X < y) ramps linearly: y in [a_low, a_high)
    ramp_low = max(b_low, a_low)
    ramp_high = min(b_high, a_high)
    if ramp_high > ramp_low:
        total += (((ramp_high - a_low) ** 2 - (ramp_low - a_low) ** 2)
                  / (2.0 * a_width))
    # segment of Y entirely above X's support: P(X < y) = 1
    sure_low = max(b_low, a_high)
    if b_high > sure_low:
        total += b_high - sure_low
    return min(max(total / b_width, 0.0), 1.0)


@lru_cache(maxsize=64)
def _factor_tables(grid: int, width: float
                   ) -> tuple[tuple[tuple[float, ...], ...], ...]:
    """``(less, keep)`` for one histogram geometry: ``less[a][d]`` is
    ``P(X < Y)`` for X uniform over bucket *a* and Y over bucket *d*,
    ``keep[a][d]`` is ``1.0 - less[a][d]``."""
    bounds = [(bucket * width, (bucket + 1) * width)
              for bucket in range(grid)]
    less = tuple(tuple(_overlap_uniform_less(*a_bounds, *d_bounds)
                       for d_bounds in bounds) for a_bounds in bounds)
    keep = tuple(tuple(1.0 - value for value in row) for row in less)
    return less, keep


class PositionalHistogram:
    """2-D (start, end) grid histogram of one tag's regions."""

    def __init__(self, position_space: int,
                 grid: int = HISTOGRAM_GRID) -> None:
        if position_space < 1:
            raise EstimationError("position space must be >= 1")
        if grid < 1:
            raise EstimationError("grid must be >= 1")
        self.position_space = position_space
        self.grid = min(grid, position_space)
        self._cell_width = position_space / self.grid
        # sparse: (row, col) -> count, row = start bucket, col = end bucket
        self.cells: dict[tuple[int, int], int] = {}
        self.total = 0

    def _bucket(self, position: int) -> int:
        index = int(position / self._cell_width)
        return min(index, self.grid - 1)

    def add(self, region: Region) -> None:
        if region.end >= self.position_space:
            raise EstimationError(
                f"region end {region.end} outside position space "
                f"{self.position_space}")
        key = (self._bucket(region.start), self._bucket(region.end))
        self.cells[key] = self.cells.get(key, 0) + 1
        self.total += 1

    def estimate_containment_join(self,
                                  descendants: "PositionalHistogram") -> float:
        """Estimated |{(a, d) : a.start < d.start and d.end <= a.end}|.

        Sums the expected pair count over all (ancestor cell,
        descendant cell) combinations under uniform-within-cell spread.
        Both histograms must share one geometry (position space and
        grid).  A pair whose descendant cell starts in an earlier row
        (``P(a.start < d.start) == 0``) or ends in a later column
        (``P(d.end <= a.end) == 0``) adds exactly ``0.0`` and is
        skipped; the others read their two factors from the
        geometry's tables, in cell order, so the sum is bit for bit
        the full double loop's.
        """
        if (self.position_space, self.grid) != (
                descendants.position_space, descendants.grid):
            raise EstimationError(
                f"histograms of different geometry: space "
                f"{self.position_space} grid {self.grid} vs space "
                f"{descendants.position_space} grid {descendants.grid}")
        if not self.cells or not descendants.cells:
            return 0.0
        less, keep = _factor_tables(self.grid, self._cell_width)
        inner = [(d_row, d_col, d_count)
                 for (d_row, d_col), d_count in descendants.cells.items()]
        expected = 0.0
        for (a_row, a_col), a_count in self.cells.items():
            p_starts = less[a_row]
            # d.end <= a.end  ==  not (a.end < d.end)
            p_ends = keep[a_col]
            for d_row, d_col, d_count in inner:
                if d_row >= a_row and d_col <= a_col:
                    expected += (a_count * d_count * p_starts[d_row]
                                 * p_ends[d_col])
        return expected

    def __len__(self) -> int:
        return self.total


class LevelHistogram:
    """Distribution of node depths for one tag."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.total = 0

    def add(self, level: int) -> None:
        self.counts[level] = self.counts.get(level, 0) + 1
        self.total += 1

    def probability(self, level: int) -> float:
        if not self.total:
            return 0.0
        return self.counts.get(level, 0) / self.total

    def parent_child_fraction(self, child: "LevelHistogram") -> float:
        """P(child level == ancestor level + 1 | child deeper).

        Used to scale an ancestor/descendant join estimate down to a
        parent/child estimate: of all depth combinations in which the
        descendant is strictly deeper, what fraction differ by exactly
        one level?
        """
        if not self.total or not child.total:
            return 0.0
        adjacent = 0.0
        deeper = 0.0
        for a_level, a_count in self.counts.items():
            for d_level, d_count in child.counts.items():
                if d_level > a_level:
                    weight = a_count * d_count
                    deeper += weight
                    if d_level == a_level + 1:
                        adjacent += weight
        if deeper == 0.0:
            return 0.0
        return adjacent / deeper
