"""Tests for the Database facade."""

import pytest

from repro.api import Database
from repro.errors import ReproError
from repro.core import QueryPattern, get_optimizer
from repro.core.cost import CostFactors
from repro.estimation.estimator import ExactEstimator
from repro.storage.disk import FileDisk


class TestConstruction:
    def test_from_xml(self, personnel_xml):
        database = Database.from_xml(personnel_xml, name="pers")
        assert database.statistics()["nodes"] > 10

    def test_from_document(self, small_document):
        database = Database.from_document(small_document)
        assert database.document is small_document

    def test_double_load_rejected(self, small_document):
        database = Database.from_document(small_document)
        with pytest.raises(ReproError, match="already holds"):
            database.load(small_document)

    def test_no_document_rejected(self):
        database = Database()
        with pytest.raises(ReproError, match="no document"):
            database.statistics()
        with pytest.raises(ReproError, match="no document"):
            __ = database.estimator

    def test_file_backed_database(self, small_document, tmp_path):
        with FileDisk(tmp_path / "db.pages") as disk:
            database = Database(disk=disk)
            database.load(small_document)
            result = database.query("//manager/employee")
            assert len(result) > 0


class TestQueries:
    def test_query_with_xpath_string(self, small_database):
        result = small_database.query("//manager//employee/name")
        assert len(result) > 0
        assert "IndexScan" in result.explain()

    def test_query_with_pattern(self, small_database, chain_pattern):
        result = small_database.query(chain_pattern)
        assert len(result) > 0

    def test_all_algorithms_agree_on_results(self, small_database,
                                             running_example_pattern):
        canonicals = set()
        for algorithm in ("DP", "DPP", "DPP'", "DPAP-EB", "DPAP-LD",
                          "FP"):
            result = small_database.query(running_example_pattern,
                                          algorithm=algorithm)
            canonicals.add(frozenset(result.execution.canonical()))
        assert len(canonicals) == 1

    def test_exact_estimator_option(self, small_database, chain_pattern):
        """``optimize`` plans on the database's estimator and takes no
        ``exact`` option; the true counts are an estimator of their
        own, which an optimizer is handed directly."""
        approx = small_database.optimize(chain_pattern)
        exact = get_optimizer("DPP").optimize(
            chain_pattern, ExactEstimator(small_database.document))
        # both must be valid; costs differ because statistics differ
        assert approx.plan is not exact.plan
        with pytest.raises(TypeError):
            small_database.optimize(chain_pattern, exact=True)

    def test_optimizer_options_forwarded(self, small_database,
                                         running_example_pattern):
        result = small_database.optimize(running_example_pattern,
                                         algorithm="DPAP-EB",
                                         expansion_bound=2)
        assert result.report.algorithm == "DPAP-EB"

    def test_bad_plan_worse_than_optimized(self, small_database,
                                           running_example_pattern):
        optimized = small_database.optimize(running_example_pattern)
        bad_plan, bad_cost = small_database.bad_plan(
            running_example_pattern, samples=20)
        assert bad_cost >= optimized.estimated_cost
        execution = small_database.execute(bad_plan,
                                           running_example_pattern)
        reference = small_database.query(running_example_pattern)
        assert execution.canonical() == (
            reference.execution.canonical())


class TestConfiguration:
    def test_custom_cost_factors_used(self, small_document):
        database = Database.from_document(
            small_document,
            cost_factors=CostFactors(f_io=100.0))
        result = database.query("//manager//employee")
        assert result.execution.metrics.factors.f_io == 100.0

    def test_statistics_shape(self, small_database):
        statistics = small_database.statistics()
        for key in ("nodes", "depth", "tags", "store_pages",
                    "index_pages", "disk_pages", "buffer_capacity"):
            assert key in statistics

    def test_warm_statistics_idempotent(self, small_database,
                                        chain_pattern):
        small_database.warm_statistics(chain_pattern)
        small_database.warm_statistics(chain_pattern)

    def test_compile_passthrough(self, small_database, chain_pattern):
        assert small_database.compile(chain_pattern) is chain_pattern
        compiled = small_database.compile("//a/b")
        assert isinstance(compiled, QueryPattern)
