"""Tests for the ASCII chart renderer."""

import pytest

from benchmarks.plots import render_stacked_bars


class TestStackedBars:
    def test_basic_rendering(self):
        chart = render_stacked_bars(
            "T", ["a", "bb"],
            [("opt", [1.0, 2.0]), ("eval", [3.0, 6.0])], width=8)
        lines = chart.splitlines()
        assert lines[0] == "T"
        assert lines[2].startswith(" a |")
        assert lines[3].startswith("bb |")
        # the larger bar spans the full width
        assert "#" * 2 + "=" * 6 in lines[3]
        assert "8.0" in lines[3]

    def test_legend_present(self):
        chart = render_stacked_bars(
            "T", ["x"], [("opt", [1.0]), ("eval", [1.0])])
        assert "# opt" in chart
        assert "= eval" in chart

    def test_zero_values(self):
        chart = render_stacked_bars("T", ["x"], [("opt", [0.0])])
        assert "0.0" in chart

    def test_unit_suffix(self):
        chart = render_stacked_bars("T", ["x"], [("opt", [2.0])],
                                    unit=" ms")
        assert "2.0 ms" in chart

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            render_stacked_bars("T", [], [("opt", [])])
        with pytest.raises(ValueError, match="values for"):
            render_stacked_bars("T", ["a"], [("opt", [1.0, 2.0])])
        with pytest.raises(ValueError, match="components"):
            render_stacked_bars("T", ["a"],
                                [(str(i), [1.0]) for i in range(9)])

    def test_scaling_is_proportional(self):
        chart = render_stacked_bars(
            "T", ["small", "large"],
            [("v", [25.0, 100.0])], width=40)
        lines = chart.splitlines()
        small_bar = lines[2].split("|")[1].count("#")
        large_bar = lines[3].split("|")[1].count("#")
        assert large_bar == 40
        assert small_bar == 10

    def test_figure_output_includes_chart(self):
        from benchmarks.experiments import figure8
        from benchmarks.harness import ExperimentSetup

        output = figure8(ExperimentSetup(pers_nodes=300,
                                         bad_plan_samples=5))
        assert "stacked" in output.text
        assert "# optimization" in output.text
