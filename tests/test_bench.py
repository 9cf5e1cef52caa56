"""Smoke tests for the experiment drivers, on miniature data sets.

The real experiments run from ``benchmarks/``; these tests verify that
each driver produces well-formed rows, renders a table, and exhibits
the paper's headline shape properties at small scale.
"""

import pytest

from benchmarks.experiments import (ALGORITHMS, TABLE2_ALGORITHMS,
                                    figure8, table1, table2, table3)
from benchmarks.harness import ExperimentSetup
from benchmarks.tables import render_table


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(pers_nodes=400, dblp_entries=60,
                           mbench_nodes=400, bad_plan_samples=10)


class TestRenderTable:
    def test_renders_aligned(self):
        text = render_table("T", ["x", "y"], [[1, 2.5], ["ab", 10000.0]],
                            note="n")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "x" in lines[2] and "y" in lines[2]
        assert "10,000" in text
        assert text.endswith("n")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table("T", ["x"], [[1, 2]])


class TestTable1(object):
    @pytest.fixture(scope="class")
    def output(self, setup):
        return table1(setup)

    def test_all_cells_present(self, output):
        assert len(output.rows) == 8
        for row in output.rows:
            for algorithm in ALGORITHMS:
                assert row[f"{algorithm}.opt_ms"] >= 0
                assert row[f"{algorithm}.eval_sim"] > 0
            assert row["bad.eval_sim"] > 0

    def test_optimal_algorithms_agree(self, output):
        """DP and DPP must select equally good plans everywhere."""
        for row in output.rows:
            assert row["DP.eval_sim"] == pytest.approx(
                row["DPP.eval_sim"], rel=0.01)

    def test_bad_plan_is_much_worse(self, output):
        for row in output.rows:
            assert row["bad.eval_sim"] >= 2 * row["DPP.eval_sim"]

    def test_heuristics_close_to_optimal_in_magnitude(self, output):
        for row in output.rows:
            assert row["DPAP-EB.eval_sim"] <= 20 * row["DPP.eval_sim"]
            assert row["FP.eval_sim"] <= 20 * row["DPP.eval_sim"]

    def test_render(self, output):
        assert "Table 1" in output.text
        assert "Q.Pers.3.d" in output.text


class TestTable2:
    @pytest.fixture(scope="class")
    def output(self, setup):
        return table2(setup)

    def test_six_variants(self, output):
        assert [row["algorithm"] for row in output.rows] == list(
            TABLE2_ALGORITHMS)

    def test_plan_count_ordering(self, output):
        plans = {row["algorithm"]: row["plans"] for row in output.rows}
        assert plans["DP"] > plans["DPP"]
        assert plans["DPP'"] > plans["DPP"]
        assert plans["DPP"] > plans["FP"]
        assert plans["DPAP-EB"] < plans["DPP"]
        assert plans["DPAP-LD"] < plans["DPP"]

    def test_exact_variants_same_eval(self, output):
        sims = {row["algorithm"]: row["eval_sim"] for row in output.rows}
        assert sims["DP"] == pytest.approx(sims["DPP"], rel=0.01)
        assert sims["DP"] == pytest.approx(sims["DPP'"], rel=0.01)


class TestTable3:
    @pytest.fixture(scope="class")
    def output(self, setup):
        return table3(setup, foldings=(1, 4))

    def test_rows_per_folding(self, output):
        foldings = {row["folding"] for row in output.rows}
        assert foldings == {1, 4}
        algorithms = {row["algorithm"] for row in output.rows}
        assert algorithms == set(ALGORITHMS) | {"bad"}

    def test_eval_grows_with_folding(self, output):
        by_algorithm = {}
        for row in output.rows:
            by_algorithm.setdefault(row["algorithm"], {})[
                row["folding"]] = row["eval_sim"]
        for algorithm, series in by_algorithm.items():
            assert series[4] > series[1], algorithm

    def test_opt_time_stays_flat(self, output):
        """Sec 4.3: optimization time does not grow with data size."""
        dpp_rows = {row["folding"]: row["opt_ms"]
                    for row in output.rows if row["algorithm"] == "DPP"}
        assert dpp_rows[4] < 25 * max(dpp_rows[1], 0.5)


class TestFigure8:
    @pytest.fixture(scope="class")
    def output(self, setup):
        return figure8(setup, query_name="Q.Pers.3.d")

    def test_te_sweep_series(self, output):
        sweep = [row for row in output.rows
                 if row["series"].startswith("DPAP-EB(")]
        assert len(sweep) == 7  # one per T_e in 1..7 (7-node pattern)

    def test_eval_improves_with_te(self, output):
        """Larger T_e must not pick a meaningfully worse plan (the
        optimizer minimizes *estimated* cost, so measured evaluation
        may wobble within estimation error)."""
        sweep = [row["eval_sim"] for row in output.rows
                 if row["series"].startswith("DPAP-EB(")]
        assert sweep[-1] <= sweep[0] * 1.25

    def test_full_bound_matches_dpp_plan(self, output):
        sims = {row["series"]: row["eval_sim"] for row in output.rows}
        assert sims["DPAP-EB(7)"] == pytest.approx(sims["DPP"],
                                                   rel=0.01)

    def test_fp_cheapest_optimizer(self, output):
        opt = {row["series"]: row["opt_ms"] for row in output.rows}
        assert opt["FP"] <= opt["DPP"]
        assert opt["FP"] <= opt["DP"]
