"""Unit tests for positional and level histograms."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import EstimationError
from repro.document.node import Region
from repro.document.parser import parse_xml
from repro.estimation.estimator import PositionalEstimator
from repro.estimation.histogram import (LevelHistogram,
                                        PositionalHistogram,
                                        _overlap_uniform_less)
from tests.conftest import pair_count


def filled(histogram, regions):
    for region in regions:
        histogram.add(region)
    return histogram


def reference_containment_join(ancestors: PositionalHistogram,
                               descendants: PositionalHistogram) -> float:
    """The join as a literal double loop over every cell pair, each
    factor computed from the two cells' bounds: what
    ``estimate_containment_join`` must equal bit for bit."""

    def bounds(histogram, bucket):
        width = histogram.position_space / histogram.grid
        return bucket * width, (bucket + 1) * width

    expected = 0.0
    for (a_row, a_col), a_count in ancestors.cells.items():
        for (d_row, d_col), d_count in descendants.cells.items():
            p_start = _overlap_uniform_less(*bounds(ancestors, a_row),
                                            *bounds(descendants, d_row))
            p_end = 1.0 - _overlap_uniform_less(
                *bounds(ancestors, a_col), *bounds(descendants, d_col))
            expected += a_count * d_count * p_start * p_end
    return expected


@st.composite
def histogram_pairs(draw):
    """Two histograms of one geometry over random regions."""
    space = draw(st.integers(1, 400))
    grid = draw(st.integers(1, 24))

    def regions():
        return st.lists(st.integers(0, space - 1).flatmap(
            lambda start: st.integers(start, space - 1).map(
                lambda end: Region(start, end, 0))), max_size=40)

    return (filled(PositionalHistogram(space, grid), draw(regions())),
            filled(PositionalHistogram(space, grid), draw(regions())))


class TestOverlapProbability:
    def test_disjoint_intervals(self):
        assert _overlap_uniform_less(0, 1, 5, 6) == 1.0
        assert _overlap_uniform_less(5, 6, 0, 1) == 0.0

    def test_identical_intervals(self):
        assert _overlap_uniform_less(0, 10, 0, 10) == pytest.approx(0.5)

    def test_partial_overlap(self):
        # X ~ U[0,2), Y ~ U[1,3): P(X<Y) = 7/8
        assert _overlap_uniform_less(0, 2, 1, 3) == pytest.approx(7 / 8)

    def test_point_masses(self):
        assert _overlap_uniform_less(1, 1, 2, 2) == 1.0
        assert _overlap_uniform_less(2, 2, 1, 1) == 0.0
        assert _overlap_uniform_less(1, 1, 0, 2) == pytest.approx(0.5)
        assert _overlap_uniform_less(0, 2, 1, 1) == pytest.approx(0.5)

    def test_probability_bounds(self):
        for args in [(0, 3, 1, 9), (2, 7, 0, 4), (0, 1, 0, 100)]:
            p = _overlap_uniform_less(*args)
            assert 0.0 <= p <= 1.0


class TestPositionalHistogram:
    def test_add_and_total(self):
        histogram = PositionalHistogram(position_space=100, grid=4)
        histogram.add(Region(0, 50, 0))
        histogram.add(Region(60, 70, 1))
        assert len(histogram) == 2

    def test_out_of_space_rejected(self):
        histogram = PositionalHistogram(position_space=10, grid=2)
        with pytest.raises(EstimationError):
            histogram.add(Region(5, 10, 0))

    def test_invalid_parameters(self):
        with pytest.raises(EstimationError):
            PositionalHistogram(position_space=0)
        with pytest.raises(EstimationError):
            PositionalHistogram(position_space=10, grid=0)

    def test_empty_join_estimate(self):
        left = PositionalHistogram(10, 2)
        right = PositionalHistogram(10, 2)
        assert left.estimate_containment_join(right) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(histogram_pairs())
    def test_join_equals_the_double_loop_bit_for_bit(self, pair):
        ancestors, descendants = pair
        assert (ancestors.estimate_containment_join(descendants).hex()
                == reference_containment_join(ancestors,
                                              descendants).hex())

    def test_join_equals_the_double_loop_on_every_pers_tag_pair(self):
        from repro.workloads import personnel_document

        positions = PositionalEstimator.from_document(personnel_document(
            target_nodes=2000, seed=42))._positions
        for ancestor, descendant in itertools.product(positions, repeat=2):
            left = positions[ancestor]
            right = positions[descendant]
            assert (left.estimate_containment_join(right).hex()
                    == reference_containment_join(left, right).hex()), (
                ancestor, descendant)

    def test_join_refuses_mismatched_geometry(self):
        regions = [Region(0, 9, 0), Region(2, 3, 1)]
        base = filled(PositionalHistogram(100, 4), regions)
        for other in (PositionalHistogram(120, 4),
                      PositionalHistogram(100, 5)):
            filled(other, regions)
            with pytest.raises(EstimationError, match="geometry"):
                base.estimate_containment_join(other)
            with pytest.raises(EstimationError, match="geometry"):
                other.estimate_containment_join(base)

    def test_estimate_accuracy_on_real_document(self):
        """Histogram estimate should be within ~3x of truth on a
        moderately recursive document at grid=16."""
        from repro.workloads import personnel_document

        document = personnel_document(target_nodes=600, seed=9)
        space = len(document)
        managers = [n.region for n in document.nodes_with_tag("manager")]
        employees = [n.region for n in document.nodes_with_tag("employee")]
        anc = filled(PositionalHistogram(space, 16), managers)
        desc = filled(PositionalHistogram(space, 16), employees)
        truth = pair_count(document, "manager", "employee")
        estimate = anc.estimate_containment_join(desc)
        assert truth > 0
        assert truth / 3 <= estimate <= truth * 3

    def test_finer_grid_not_worse(self):
        from repro.workloads import personnel_document

        document = personnel_document(target_nodes=600, seed=9)
        space = len(document)
        managers = [n.region for n in document.nodes_with_tag("manager")]
        names = [n.region for n in document.nodes_with_tag("name")]
        truth = pair_count(document, "manager", "name")
        errors = []
        for grid in (1, 8, 32):
            anc = filled(PositionalHistogram(space, grid), managers)
            desc = filled(PositionalHistogram(space, grid), names)
            estimate = anc.estimate_containment_join(desc)
            errors.append(abs(estimate - truth) / truth)
        assert errors[-1] <= errors[0]


class TestLevelHistogram:
    def test_probability(self):
        histogram = LevelHistogram()
        for level in (1, 1, 2, 3):
            histogram.add(level)
        assert histogram.probability(1) == pytest.approx(0.5)
        assert histogram.probability(9) == 0.0

    def test_empty(self):
        assert LevelHistogram().probability(0) == 0.0

    def test_parent_child_fraction(self):
        parents = LevelHistogram()
        parents.add(1)
        children = LevelHistogram()
        children.add(2)
        children.add(3)
        # of deeper pairs, half are exactly one level apart
        assert parents.parent_child_fraction(children) == pytest.approx(0.5)

    def test_parent_child_fraction_no_deeper(self):
        parents = LevelHistogram()
        parents.add(5)
        children = LevelHistogram()
        children.add(2)
        assert parents.parent_child_fraction(children) == 0.0


class TestCountContainmentPairs:
    """The exact estimator's pair counts, which the tests above take
    for the truth."""

    def test_simple_nesting(self):
        document = parse_xml("<a><b><a><b/></a></b></a>")
        assert pair_count(document, "a", "b") == 3
        assert pair_count(document, "a", "b", "/") == 2

    def test_self_join(self):
        document = parse_xml("<a><a><a/></a></a>")
        assert pair_count(document, "a", "a") == 3
        assert pair_count(document, "a", "a", "/") == 2

    def test_matches_bruteforce(self, small_document):
        tags = small_document.tags()
        for anc_tag in tags:
            for desc_tag in tags:
                ancs = [n.region for n in
                        small_document.nodes_with_tag(anc_tag)]
                descs = [n.region for n in
                         small_document.nodes_with_tag(desc_tag)]
                brute = sum(1 for a in ancs for d in descs
                            if a.contains(d))
                assert pair_count(small_document, anc_tag,
                                  desc_tag) == brute
                brute_pc = sum(1 for a in ancs for d in descs
                               if a.is_parent_of(d))
                assert pair_count(small_document, anc_tag, desc_tag,
                                  "/") == brute_pc
