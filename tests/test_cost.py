"""Unit tests for the Sec. 2.2.2 cost model."""

import math

import pytest

from repro.errors import OptimizerError
from repro.core.cost import CostFactors, CostModel


@pytest.fixture
def model():
    return CostModel(CostFactors(f_index=1.0, f_sort=2.0, f_io=16.0,
                                 f_stack=1.0))


class TestFormulas:
    def test_index_access_linear(self, model):
        assert model.index_access(0) == 0.0
        assert model.index_access(100) == 100.0
        assert model.index_access(200) == 2 * model.index_access(100)

    def test_sort_n_log_n(self, model):
        assert model.sort(0) == 0.0
        assert model.sort(1) == 0.0
        assert model.sort(8) == pytest.approx(8 * 3 * 2.0)
        assert model.sort(1024) == pytest.approx(1024 * 10 * 2.0)

    def test_sort_accepts_fractional_cardinalities(self, model):
        estimated = model.sort(1000.5)
        assert estimated == pytest.approx(1000.5 * math.log2(1000.5) * 2.0)

    def test_stack_tree_desc(self, model):
        # 2 * |A| * f_st — independent of output size
        assert model.stack_tree_desc(50) == 100.0
        assert model.stack_tree_desc(0) == 0.0

    def test_stack_tree_anc(self, model):
        # 2 * |AB| * f_IO + 2 * |A| * f_st
        assert model.stack_tree_anc(50, 10) == pytest.approx(
            2 * 10 * 16.0 + 2 * 50 * 1.0)

    def test_anc_more_expensive_than_desc_with_output(self, model):
        assert model.stack_tree_anc(50, 1) > model.stack_tree_desc(50)

    def test_negative_inputs_rejected(self, model):
        with pytest.raises(OptimizerError):
            model.index_access(-1)
        with pytest.raises(OptimizerError):
            model.sort(-5)
        with pytest.raises(OptimizerError):
            model.stack_tree_desc(-1)
        with pytest.raises(OptimizerError):
            model.stack_tree_anc(1, -1)


class TestFactors:
    def test_defaults_are_positive(self):
        factors = CostFactors()
        assert factors.f_index > 0
        assert factors.f_sort > 0
        assert factors.f_io > 0
        assert factors.f_stack > 0

    def test_negative_factor_rejected(self):
        with pytest.raises(OptimizerError):
            CostFactors(f_io=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_factor_rejected(self, value):
        with pytest.raises(OptimizerError, match="f_sort must be finite"):
            CostFactors(f_sort=value)
        # a calibration file or log goes through the same check
        with pytest.raises(OptimizerError, match="f_sort must be finite"):
            CostFactors.from_dict({"f_sort": value})

    def test_factors_scale_costs(self):
        cheap = CostModel(CostFactors(f_io=1.0))
        expensive = CostModel(CostFactors(f_io=10.0))
        assert expensive.stack_tree_anc(0, 100) == pytest.approx(
            10 * cheap.stack_tree_anc(0, 100))
