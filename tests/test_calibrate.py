"""Calibration, runtime factor swap, plan auditing and quantiles."""

import random

import pytest

from repro.api import Database
from repro.core.cost import CostFactors
from repro.errors import ReproError
from repro.obs.audit import audit_records
from repro.obs.calibrate import (calibrate_records, cost_q_error,
                                 evaluate_factors, fit_cost_factors,
                                 nonnegative_least_squares,
                                 samples_from_records, split_holdout,
                                 TraceSample)
from repro.obs.querylog import QueryLog
from repro.obs.registry import Histogram, MetricsRegistry, SampleReservoir

DOC = """
<company>
  <manager><name>ada</name>
    <department><name>dev</name></department>
    <employee><name>bob</name></employee>
    <employee><name>cid</name></employee>
  </manager>
  <manager><name>eve</name>
    <employee><name>dan</name></employee>
  </manager>
</company>
"""

TRUE = CostFactors(f_index=2e-6, f_sort=5e-7, f_io=3e-6, f_stack=8e-7)


def _synthetic_records(n, factors=TRUE, noise=0.0, seed=7):
    """Records whose operator timings follow known factors exactly
    (plus optional multiplicative noise)."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        operators = []
        for counters in (
                {"index_items": 100 + 70 * (i % 11)},
                {"sort_units": 50 + 30 * ((i * 3) % 13)},
                {"buffered_results": 20 + 10 * ((i * 5) % 7)},
                {"stack_tuple_ops": 40 + 25 * ((i * 7) % 5)},
        ):
            seconds = (factors.f_index * counters.get("index_items", 0)
                       + factors.f_sort * counters.get("sort_units", 0)
                       + factors.f_io * 2 * counters.get(
                           "buffered_results", 0)
                       + factors.f_stack * 2 * counters.get(
                           "stack_tuple_ops", 0))
            if noise:
                seconds *= 1.0 + rng.uniform(-noise, noise)
            operators.append({"operator": "synthetic",
                              "counters": counters,
                              "self_seconds": seconds})
        records.append({"query": f"//q{i}", "operators": operators})
    return records


# -- NNLS and fitting --------------------------------------------------------

def test_nnls_recovers_exact_solution():
    rows = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    targets = [2.0, 3.0, 5.0]
    beta, rss, active = nonnegative_least_squares(rows, targets)
    assert beta == pytest.approx([2.0, 3.0])
    assert rss == pytest.approx(0.0, abs=1e-18)
    assert active == (0, 1)


def test_nnls_clamps_negative_components():
    # unconstrained least squares would fit column 1 negative
    rows = [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]
    targets = [3.0, 2.0, 1.0]
    beta, _, _ = nonnegative_least_squares(rows, targets)
    assert all(value >= 0.0 for value in beta)
    assert beta[1] == 0.0


def test_fit_recovers_known_factors_exactly():
    samples = samples_from_records(_synthetic_records(30))
    result = fit_cost_factors(samples)
    assert result.factors.f_index == pytest.approx(TRUE.f_index, rel=1e-9)
    assert result.factors.f_sort == pytest.approx(TRUE.f_sort, rel=1e-9)
    assert result.factors.f_io == pytest.approx(TRUE.f_io, rel=1e-9)
    assert result.factors.f_stack == pytest.approx(TRUE.f_stack, rel=1e-9)
    assert result.r2 == pytest.approx(1.0)


def test_fit_recovers_noisy_factors_within_5_percent():
    samples = samples_from_records(
        _synthetic_records(200, noise=0.05, seed=3))
    result = fit_cost_factors(samples)
    for name in ("f_index", "f_sort", "f_io", "f_stack"):
        assert getattr(result.factors, name) == pytest.approx(
            getattr(TRUE, name), rel=0.05), name


def test_uncovered_factor_fits_zero_with_no_stderr():
    records = _synthetic_records(20)
    for record in records:  # strip every sort operator
        record["operators"] = [
            entry for entry in record["operators"]
            if "sort_units" not in entry["counters"]]
    result = fit_cost_factors(samples_from_records(records))
    sort_fit = next(f for f in result.fits if f.name == "f_sort")
    assert sort_fit.value == 0.0
    assert sort_fit.coverage == 0
    assert sort_fit.relative_error is None


def test_fit_refuses_empty_input():
    with pytest.raises(ReproError):
        fit_cost_factors([])
    with pytest.raises(ReproError):
        calibrate_records([{"query": "//a"}])  # no counters anywhere


def test_split_holdout_is_deterministic_and_disjoint():
    samples = [TraceSample((float(i),), float(i)) for i in range(10)]
    train, held = split_holdout(samples, holdout_every=5)
    assert len(train) == 8 and len(held) == 2
    assert set(train).isdisjoint(held)
    assert split_holdout(samples, holdout_every=1) == (samples, samples)


def test_calibrate_records_beats_defaults_on_holdout():
    result = calibrate_records(_synthetic_records(100, noise=0.02))
    assert result.holdout["learned_q_error"] < result.holdout[
        "default_q_error"]
    assert result.improved
    assert "holdout" in result.render() or "samples" in result.render()


def test_cost_q_error_floor():
    assert cost_q_error(2.0, 1.0) == pytest.approx(2.0)
    assert cost_q_error(0.0, 0.0) == pytest.approx(1.0)
    assert cost_q_error(1e-4, 1e-2) == pytest.approx(100.0)


def test_evaluate_factors_perfect_model_scores_one():
    samples = samples_from_records(_synthetic_records(10))
    assert evaluate_factors(TRUE, samples) == pytest.approx(1.0)
    assert evaluate_factors(TRUE, []) == 1.0


# -- runtime factor swap -----------------------------------------------------

def test_set_cost_factors_bumps_epoch_and_invalidates_cache():
    database = Database.from_xml(DOC)
    service = database.service
    database.query_many(["//manager/employee"] * 2)
    assert len(service.cache) >= 1
    epoch = database.statistics_epoch
    learned = CostFactors(f_index=1e-6, f_sort=1e-7, f_io=2e-6,
                          f_stack=3e-7)
    database.set_cost_factors(learned)
    assert database.statistics_epoch == epoch + 1
    assert database.cost_factors == learned
    assert database.cost_model.factors == learned
    assert len(service.cache) == 0
    # the service keeps serving (and merging metrics) after the swap
    results = database.query_many(["//manager/employee"] * 2)
    assert all(len(r.execution) == 3 for r in results)
    # no-op swap must not churn the epoch
    database.set_cost_factors(learned)
    assert database.statistics_epoch == epoch + 1


def test_calibration_result_apply():
    database = Database.from_xml(DOC)
    result = calibrate_records(_synthetic_records(50))
    result.apply(database)
    assert database.cost_factors == result.factors


# -- plan auditing -----------------------------------------------------------

def _logged_database():
    database = Database.from_xml(DOC)
    log = QueryLog(None)
    database.attach_query_log(log)
    database.service.trace_sample = 1
    for query in ("//manager//employee/name", "//manager/name",
                  "//manager//employee/name"):
        database.service.query(query, algorithm="DPP")
    database.attach_query_log(None)
    return database, log.records()


def test_audit_unchanged_corpus_reports_zero_flips():
    database, records = _logged_database()
    registry = MetricsRegistry()
    report = audit_records(database, records, registry=registry)
    assert report.records_seen == 3
    assert report.queries_replayed == 2  # latest record per query
    assert report.plan_flips == 0
    assert report.skipped == 0
    assert registry.gauge("repro_plan_flips_total").value() == 0
    assert registry.gauge("repro_plan_audit_queries").value() == 2
    assert report.qerror_by_operator  # logged traces were aggregated
    text = report.render()
    assert "0 plan flip(s)" in text


def test_audit_detects_tampered_plan_as_flip():
    database, records = _logged_database()
    records[-1]["plan_digest"] = "not-the-plan-anymore"
    report = audit_records(database, records)
    assert report.plan_flips == 1
    flipped = [entry for entry in report.entries if entry.flipped]
    assert flipped[0].query == "//manager//employee/name"
    assert "FLIP" in report.render()


def test_audit_skips_unparseable_queries():
    database, records = _logged_database()
    records.append({"query": "//***not-xpath***("})
    report = audit_records(database, records)
    assert report.skipped == 1
    assert report.plan_flips == 0


def test_audit_algorithm_override():
    database, records = _logged_database()
    report = audit_records(database, records, algorithm="FP")
    assert {entry.algorithm for entry in report.entries} == {"FP"}


# -- histogram quantiles -----------------------------------------------------

def test_histogram_quantile_matches_reservoir_on_same_stream():
    registry = MetricsRegistry()
    histogram = registry.histogram("repro_test_latency")
    reservoir = SampleReservoir(capacity=8192, seed=0)
    rng = random.Random(11)
    for _ in range(5000):
        value = rng.lognormvariate(-5.0, 1.0)  # latency-ish spread
        histogram.observe(value)
        reservoir.add(value)
    exact = sorted(reservoir.values())
    for q in (0.5, 0.9, 0.95, 0.99):
        rank = max(1, round(q * len(exact))) - 1
        true_value = exact[rank]
        estimate = histogram.quantile(q)
        # the interpolated estimate can only be off by bucket width:
        # it must land in the same bucket as the exact quantile
        assert estimate <= 2.5 * true_value + 1e-12
        assert estimate >= true_value / 2.5 - 1e-12


def test_histogram_quantile_interpolates_within_bucket():
    registry = MetricsRegistry()
    histogram = registry.histogram("repro_test_uniform",
                                   buckets=(1.0, 2.0, 4.0))
    for value in (1.2, 1.4, 1.6, 1.8):  # all inside (1, 2]
        histogram.observe(value)
    assert histogram.quantile(0.0) == pytest.approx(1.25)
    assert histogram.quantile(0.5) == pytest.approx(1.5)
    assert histogram.quantile(1.0) == pytest.approx(2.0)


def test_histogram_quantile_edge_cases():
    registry = MetricsRegistry()
    histogram = registry.histogram("repro_test_edges",
                                   buckets=(1.0, 2.0))
    assert histogram.quantile(0.5) == 0.0  # no observations
    histogram.observe(10.0)  # beyond the last finite bucket
    assert histogram.quantile(0.99) == 2.0  # clamped to last bound
    with pytest.raises(ValueError):
        histogram.quantile(1.5)
    with pytest.raises(ValueError):
        histogram.quantile(-0.1)


def test_histogram_quantile_respects_labels():
    registry = MetricsRegistry()
    histogram = registry.histogram("repro_test_labelled",
                                   buckets=(1.0, 2.0, 4.0))
    histogram.observe(0.5, engine="block")
    histogram.observe(3.0, engine="tuple")
    assert histogram.quantile(0.5, engine="block") <= 1.0
    assert histogram.quantile(0.5, engine="tuple") > 2.0
