"""Ablation benches for the design choices DESIGN.md calls out.

* Lookahead Rule on/off (DPP vs DPP') — search size and time;
* estimator quality (positional histograms vs sampling vs true
  counts) — plan quality;
* histogram grid resolution — estimate accuracy vs statistics cost;
* cost-factor sensitivity — where the blocking/pipelined crossover
  moves as ``f_io`` changes.
"""

import pytest

from benchmarks.conftest import publish
from benchmarks.harness import paper_estimator, plan_cell
from benchmarks.histogram import PositionalEstimator
from benchmarks.sampling import SamplingEstimator
from benchmarks.tables import render_table
from repro.api import Database
from repro.core.cost import CostFactors
from repro.estimation.estimator import ExactEstimator
from repro.workloads.folding import fold_document
from repro.workloads.personnel import personnel_document
from repro.workloads.queries import paper_query

QUERY = "Q.Pers.3.d"


class TestLookaheadAblation:
    @pytest.mark.parametrize("variant", ["DPP", "DPP'"])
    def test_lookahead(self, benchmark, pers_db, variant):
        query = paper_query(QUERY)
        estimator = paper_estimator(pers_db)
        result = benchmark(plan_cell, pers_db, query.pattern, variant,
                           estimator)
        benchmark.extra_info["statuses_generated"] = (
            result.report.statuses_generated)
        benchmark.extra_info["deadends_avoided"] = (
            result.report.deadends_avoided)

    def test_lookahead_shrinks_search(self, benchmark, pers_db):
        query = paper_query(QUERY)

        def run():
            with_rule = plan_cell(pers_db, query.pattern, "DPP")
            without = plan_cell(pers_db, query.pattern, "DPP'")
            return with_rule.report, without.report

        with_rule, without = benchmark.pedantic(run, rounds=1,
                                                iterations=1)
        assert with_rule.statuses_generated < without.statuses_generated
        assert with_rule.deadends_avoided > 0


class TestEstimatorAblation:
    def test_estimator_quality(self, benchmark, setup):
        """Three-way estimator comparison: the paper's positional
        histograms vs a systematic sampler vs the true count of every
        cluster — both the estimate's accuracy and the quality of the
        plan DPP picks with it."""
        query = paper_query(QUERY)

        def run():
            database = Database.from_document(
                personnel_document(target_nodes=setup.pers_nodes,
                                   seed=setup.seed))
            exact = ExactEstimator(database.document)
            truth = exact.edge_cardinality(query.pattern, 0, 1)
            estimators = [
                ("positional", paper_estimator(database)),
                ("sampling", SamplingEstimator(database.document)),
                ("exact", exact),
            ]
            rows = []
            for name, estimator in estimators:
                optimization = plan_cell(database, query.pattern,
                                         estimator=estimator)
                execution = database.execute(optimization.plan,
                                             query.pattern)
                estimate = estimator.edge_cardinality(query.pattern,
                                                      0, 1)
                rows.append({
                    "estimator": name,
                    "edge_error": abs(estimate - truth) / max(truth, 1),
                    "eval_sim": execution.metrics.simulated_cost(),
                    "estimated": optimization.estimated_cost,
                })
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        text = render_table(
            "Ablation: estimator quality (DPP plan, Q.Pers.3.d)",
            ["Estimator", "edge est. rel-error", "eval(sim)",
             "estimated"],
            [[r["estimator"], r["edge_error"], r["eval_sim"],
              r["estimated"]] for r in rows])
        publish("ablation_estimator", text)
        by_name = {r["estimator"]: r for r in rows}
        # exact statistics estimate the pair size perfectly
        assert by_name["exact"]["edge_error"] == pytest.approx(0.0)
        # histogram-driven plans must stay within a reasonable factor
        # of plans chosen on true counts
        assert by_name["positional"]["eval_sim"] <= \
            3 * by_name["exact"]["eval_sim"]


class TestHistogramGridAblation:
    @pytest.mark.parametrize("grid", [2, 8, 32])
    def test_grid_resolution(self, benchmark, setup, grid):
        document = personnel_document(target_nodes=setup.pers_nodes,
                                      seed=setup.seed)
        query = paper_query(QUERY)
        exact = ExactEstimator(document)
        truth = exact.edge_cardinality(query.pattern, 0, 1)

        def estimate():
            estimator = PositionalEstimator.from_document(document,
                                                          grid=grid)
            return estimator.edge_cardinality(query.pattern, 0, 1)

        estimated = benchmark(estimate)
        error = abs(estimated - truth) / max(truth, 1.0)
        benchmark.extra_info["relative_error"] = error
        benchmark.extra_info["grid"] = grid


class TestCostFactorSensitivity:
    def test_crossover_moves_with_f_io(self, benchmark, setup):
        """Higher f_io should push the optimizer towards sort-based
        (blocking) plans for longer; lower f_io makes the FP plan
        optimal even on small data (Sec. 4.3 discussion)."""
        query = paper_query(QUERY)
        base = personnel_document(target_nodes=setup.pers_nodes,
                                  seed=setup.seed)

        def run():
            rows = []
            for f_io in (2.0, 16.0, 64.0):
                factors = CostFactors(f_io=f_io)
                database = Database.from_document(base,
                                                  cost_factors=factors)
                optimization = plan_cell(database, query.pattern)
                rows.append({
                    "f_io": f_io,
                    "fully_pipelined": (
                        optimization.plan.is_fully_pipelined),
                    "sorts": optimization.plan.sort_count(),
                })
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        text = render_table(
            "Ablation: f_io sensitivity of the optimal plan shape",
            ["f_io", "fully pipelined", "sorts"],
            [[r["f_io"], r["fully_pipelined"], r["sorts"]]
             for r in rows])
        publish("ablation_costfactors", text)
        # cheap I/O -> pipelined optimum; expensive I/O -> sorts win
        assert rows[0]["fully_pipelined"]
        assert rows[-1]["sorts"] > 0


class TestFoldedLookahead:
    def test_dpp_beats_dp_on_search_size(self, benchmark, pers_db):
        query = paper_query(QUERY)

        def run():
            dp = plan_cell(pers_db, query.pattern, "DP")
            dpp = plan_cell(pers_db, query.pattern, "DPP")
            return dp.report, dpp.report

        dp, dpp = benchmark.pedantic(run, rounds=1, iterations=1)
        assert dpp.statuses_generated < dp.statuses_generated / 2
