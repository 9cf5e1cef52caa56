"""Observability subsystem: spans, EXPLAIN ANALYZE, metrics registry.

Covers the PR-3 guarantees:

* traced executions return the identical results and identical
  ``ExecutionMetrics`` as untraced ones, on both engines;
* per-operator counter shares sum *exactly* to the run totals (the
  estimate-vs-actual parity oracle, run over a small differential
  corpus);
* the registry's Prometheus text export is scrape-parseable and its
  JSON export round-trips;
* the latency reservoir is a uniform sample, not drop-oldest
  truncation;
* ``ExecutionMetrics.merge`` refuses mismatched cost factors;
* the CLI surfaces (``explain --analyze/--trace/--json``,
  ``stats --format``) work end to end.
"""

from __future__ import annotations

import asyncio
import io
import json
import re

import pytest

from repro.api import Database
from repro.cli import main as cli_main
from repro.core.cost import CostFactors
from repro.engine.metrics import COST_COUNTERS, ExecutionMetrics
from repro.errors import ReproError, ShardError
from repro.obs import (MetricsRegistry, SampleReservoir, Span, Tracer,
                       q_error)
from repro.server import QueryServer, ServerConfig, fetch
from repro.shard.sharded import ShardedDatabase
from repro.workloads import make_rng, random_pattern
from repro.workloads.personnel import personnel_document
from repro.workloads.queries import PAPER_QUERIES, dataset_document

from tests.conftest import branches_at_root, random_document

ENGINES = ("block", "tuple")
QUERY = "//manager//employee/name"


@pytest.fixture(scope="module")
def database() -> Database:
    return Database.from_document(personnel_document(target_nodes=900))


def analyzed(database, query, engine):
    """``database.explain(query, analyze=True)`` with the analyzed run
    on *engine*: ``explain`` names none, so the run is spelled where a
    plan-level caller says it."""
    report = database.explain(query)
    report.execution = database.execute(
        report.optimization.plan, database.compile(query),
        engine=engine, spans=True)
    return report


# -- span mechanics ------------------------------------------------------


class TestSpans:
    def test_wrap_counts_rows_and_time(self):
        span = Span("scan")
        rows = list(span.wrap(iter(range(5))))
        assert rows == [0, 1, 2, 3, 4]
        assert span.output_rows == 5
        assert span.seconds > 0

    def test_exclusive_seconds_subtracts_children(self):
        parent = Span("join")
        parent.seconds = 1.0
        child = Span("scan")
        child.seconds = 0.75
        parent.children.append(child)
        assert parent.exclusive_seconds() == pytest.approx(0.25)
        child.seconds = 2.0  # clock skew never goes negative
        assert parent.exclusive_seconds() == 0.0

    def test_to_dict_and_render(self, database):
        report = database.explain(QUERY, analyze=True)
        payload = report.span.to_dict()
        # the report's span is the run's own operator tree
        assert report.span is report.execution.span
        assert payload["name"] == "BlockStackTreeDescJoin"
        assert payload["detail"] == report.optimization.plan.label(
            database.compile(QUERY))
        assert len(payload["children"]) == 2
        assert payload["rows_q_error"] >= 1.0
        assert payload["cost_q_error"] >= 1.0
        text = report.span.render()
        assert "IndexScan($0:manager)" in text and "ms" in text
        json.dumps(payload)  # JSON-able all the way down

    def test_stage_spans_render_plainly(self):
        stage = Span("ShardMerge", detail="merge")
        stage.seconds = 0.002
        assert stage.render() == "merge 2.00ms"
        assert "rows_q_error" not in stage.to_dict()

    def test_tracer_ring_drops_oldest(self):
        tracer = Tracer(capacity=2)
        for index in range(5):
            tracer.record(Span(f"q{index}"))
        assert tracer.recorded == 5
        assert [span.name for span in tracer.traces()] == ["q3", "q4"]
        assert len(tracer) == 2
        tracer.clear()
        assert len(tracer) == 0

    def test_database_tracer_records_analyzed_queries(self):
        database = Database.from_document(
            personnel_document(target_nodes=300))
        database.explain(QUERY, analyze=True)
        database.explain(QUERY)  # plain explain does not execute
        assert database.tracer.recorded == 1


# -- traced execution: parity with untraced runs -------------------------


class TestTracedExecutionParity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_results_and_counters_identical(self, database, engine):
        pattern = database.compile(QUERY)
        plan = database.optimize(pattern).plan
        plain = database.execute(plan, pattern, engine=engine)
        traced = database.execute(plan, pattern, engine=engine,
                                  spans=True)
        assert traced.tuples == plain.tuples
        assert traced.metrics.counters() == plain.metrics.counters()
        assert traced.span is not None and plain.span is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_span_shares_sum_to_run_totals(self, database, engine):
        pattern = database.compile(QUERY)
        plan = database.optimize(pattern).plan
        traced = database.execute(plan, pattern, engine=engine,
                                  spans=True)
        totals = {name: 0.0 for name in COST_COUNTERS}
        for span in traced.span.walk_post_order():
            for name, value in span.counters().items():
                totals[name] += value
        assert totals == traced.metrics.counters()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_span_tree_mirrors_plan_tree(self, database, engine):
        pattern = database.compile(QUERY)
        plan = database.optimize(pattern).plan
        traced = database.execute(plan, pattern, engine=engine,
                                  spans=True)

        def shapes(node, children):
            yield len(children(node))
            for child in children(node):
                yield from shapes(child, children)

        assert list(shapes(plan, lambda p: p.children())) == \
            list(shapes(traced.span, lambda s: s.children))


# -- EXPLAIN ANALYZE -----------------------------------------------------


class TestExplainAnalyze:
    def test_plain_explain_has_no_execution(self, database):
        report = database.explain(QUERY)
        assert not report.analyze
        assert report.execution is None and report.span is None
        assert "IndexScan" in report.render()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_analyze_annotates_every_operator(self, database, engine):
        report = analyzed(database, QUERY, engine)
        operators = list(report.span.walk())
        assert len(operators) == 5  # 3 scans + 2 joins
        for node in operators:
            assert node.rows_q_error() >= 1.0
            assert node.cost_q_error() >= 1.0
            assert node.output_rows >= 0
        # scans estimate exactly (cardinalities come from the index)
        leaves = [node for node in operators if not node.children]
        assert all(node.rows_q_error() == 1.0 for node in leaves)
        text = report.render()
        assert "q=" in text and "rows=" in text
        # the header names no engine; the spans do
        assert "engine=" not in text
        assert all(node.name.startswith("Block") == (engine == "block")
                   for node in operators)

    def test_actual_cost_is_cumulative(self, database):
        report = database.explain(QUERY, analyze=True)
        root = report.span
        assert root.actual_cost() == pytest.approx(
            root.simulated_cost()
            + sum(child.actual_cost() for child in root.children))
        assert root.actual_cost() == pytest.approx(
            report.execution.metrics.simulated_cost())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_totals_match_execution_metrics_exactly(self, database,
                                                    engine):
        report = analyzed(database, QUERY, engine)
        assert report.actual_totals() == \
            report.execution.metrics.counters()

    def test_to_dict_round_trips_through_json(self, database):
        report = database.explain(QUERY, analyze=True)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["analyze"] is True
        assert payload["rows"] == len(report.execution)
        assert payload["totals"] == report.execution.metrics.counters()
        assert payload["plan"]["children"]
        # the operator tree ships once
        assert "spans" not in payload
        assert payload["plan"]["trace_id"] == payload["trace_id"]

    def test_q_error_definition(self):
        assert q_error(100, 100) == 1.0
        assert q_error(10, 1000) == 100.0
        assert q_error(1000, 10) == 100.0  # symmetric
        assert q_error(0, 0) == 1.0  # clamped, no division by zero
        assert q_error(0, 5) == 5.0

    def test_service_passthrough(self, database):
        report = database.explain(QUERY, analyze=True)
        assert report.analyze
        # diagnostics do not count as served queries
        assert database.service.snapshot()["queries"] == 0


class TestExplainAnalyzeOracle:
    """Estimate-vs-actual parity over a differential corpus.

    For random patterns on random documents, EXPLAIN ANALYZE's summed
    per-operator counters must equal the counters of an independent
    untraced execution of the same plan — on both engines.
    """

    CORPUS = 30

    def test_actuals_match_untraced_oracle(self):
        rng = make_rng(20260805)
        databases = [Database.from_document(random_document(seed,
                                                            size=48))
                     for seed in (1, 2, 3)]
        checked = 0
        while checked < self.CORPUS:
            database = databases[checked % len(databases)]
            tags = tuple(sorted(database.document.tags()))
            pattern = random_pattern(rng, tags=tags, min_nodes=2,
                                     max_nodes=5, wildcard_chance=0.1,
                                     order_by_chance=0.5)
            plan = database.optimize(pattern).plan
            for engine in ENGINES:
                oracle = database.execute(plan, pattern, engine=engine)
                report = analyzed(database, pattern, engine)
                assert report.actual_totals() == \
                    oracle.metrics.counters(), \
                    f"engine={engine} pattern={pattern.describe()!r}"
                assert report.execution.canonical() == \
                    oracle.canonical()
            checked += 1
        assert checked == self.CORPUS


# -- the span tree is the per-operator record ----------------------------

#: ``operators[*]`` of a query-log record as the parent of PR 19 wrote
#: it; ``calibrate`` and ``audit`` read these names back from disk
LOGGED_OPERATOR_KEYS = {"operator", "estimated_rows", "actual_rows",
                        "estimated_cost", "actual_cost", "seconds",
                        "self_seconds", "simulated_cost", "counters"}


@pytest.fixture(scope="module", params=("pers", "dblp", "mbench"))
def paper_targets(request):
    """One data set's paper queries, a single node and a 2-shard
    fleet over its document (one fleet alive at a time)."""
    size = ({"entries": 60} if request.param == "dblp"
            else {"target_nodes": 600})
    document = dataset_document(request.param, seed=42, **size)
    queries = [query for query in PAPER_QUERIES.values()
               if query.dataset == request.param]
    with ShardedDatabase(document, shards=2) as fleet:
        yield queries, {"single": Database.from_document(document),
                        "fleet": fleet}


def test_the_eight_paper_queries_are_covered():
    assert len(PAPER_QUERIES) == 8
    assert {query.dataset for query in PAPER_QUERIES.values()} \
        == {"pers", "dblp", "mbench"}


@pytest.mark.parametrize("backend", ("single", "fleet"))
def test_span_tree_is_the_whole_per_operator_record(paper_targets,
                                                    backend):
    """Paper queries x engines x back ends: the counter shares read
    off the span tree sum exactly to the run's metrics, a span's
    ``operator_record()`` keeps the on-disk key set, and an operator
    is labelled by its plan node — identically on both engines and
    inside every shard worker."""
    queries, targets = paper_targets
    database = targets[backend]
    for query in queries:
        pattern = query.pattern
        plan = database.optimize(pattern).plan
        if backend == "fleet" and branches_at_root(
                pattern, database.document):
            with pytest.raises(ShardError, match="document root"):
                database.execute(plan, pattern, spans=True)
            continue
        labels = [node.label(pattern) for node in plan.walk()]
        for engine in ENGINES:
            execution = database.execute(plan, pattern, engine=engine,
                                         spans=True)
            totals = {name: 0.0 for name in COST_COUNTERS}
            for span in execution.span.walk_post_order():
                for name, value in span.counters().items():
                    totals[name] += value
            expected = execution.metrics.counters()
            if backend == "fleet":
                # the one float counter: summed shard by shard there,
                # operator by operator here
                expected["sort_units"] = pytest.approx(
                    expected["sort_units"])
            assert totals == expected, (query.name, engine)
            trees = ([execution.span] if backend == "single" else
                     [span.children[0]
                      for span in execution.span.walk()
                      if span.name == "Shard"])
            assert len(trees) == (1 if backend == "single" else 2)
            for tree in trees:
                assert [span.detail for span in tree.walk()] == labels
                for span in tree.walk():
                    assert set(span.operator_record()) \
                        == LOGGED_OPERATOR_KEYS


def test_fleet_wrappers_carry_the_plans_estimates(paper_targets):
    """What the synthetic per-shard analysis tree used to add: the
    root and each ``Shard`` wrapper are stamped with the plan's
    estimates, so they read a Q-error like any operator; the
    scatter / gather / merge stages stay plain."""
    queries, targets = paper_targets
    fleet = targets["fleet"]
    pattern = next(
        (query.pattern for query in queries
         if not branches_at_root(query.pattern, fleet.document)),
        # both DBLP queries branch at the root: one of their branches
        fleet.compile("//dblp/article/author"))
    report = fleet.explain(pattern, analyze=True)
    plan = report.optimization.plan
    stamped = [span for span in report.span.walk()
               if span.name in ("ShardScatterGather", "Shard")]
    assert len(stamped) == 3
    for span in stamped:
        assert span.estimated_cardinality == plan.estimated_cardinality
        assert span.estimated_cost == plan.estimated_cost
        assert span.metrics is None
    for span in report.span.walk():
        if span.name in ("ShardScatter", "ShardGather", "ShardMerge"):
            assert span.estimated_cardinality is None
    assert report.span.actual_cost() == pytest.approx(
        report.execution.metrics.simulated_cost())
    assert report.max_rows_q_error() == max(
        span.rows_q_error() for span in report.span.walk()
        if span.estimated_cardinality is not None)
    text = report.render()
    # an est/act line for the root, each wrapper, each shard operator
    assert len(re.findall(r"\(q=\d.*\(q=\d.* time=\d", text)) \
        == 3 + 2 * len(list(plan.walk()))
    for stage in ("scatter", "gather", "merge"):
        assert f"\n  {stage} " in text
    payload = report.to_dict()
    assert "spans" not in payload
    assert payload["plan"]["name"] == "ShardScatterGather"


# -- metrics registry ----------------------------------------------------


def parse_prometheus(text: str) -> dict[str, float]:
    """Minimal scrape parser: name{labels} -> value.

    Raises on any malformed line, so using it *is* the format check.
    """
    series: dict[str, float] = {}
    types: dict[str, str] = {}
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram", "untyped")
            types[name] = kind
            continue
        if line.startswith("# HELP "):
            assert line.split(" ", 3)[3]  # help text present
            continue
        assert not line.startswith("#"), f"unknown comment: {line}"
        name_part, value_part = line.rsplit(" ", 1)
        series[name_part] = (float("inf") if value_part == "+Inf"
                             else float(value_part))
    assert types, "no TYPE headers"
    return series


class TestRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Requests").inc()
        registry.counter("requests_total").inc(2, status="error")
        registry.gauge("pool_size", "Pool").set(7)
        hist = registry.histogram("latency_seconds", "Latency",
                                  buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        assert registry.counter("requests_total").value() == 1
        assert registry.counter("requests_total").value(
            status="error") == 2
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(5.55)

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("metric_one")
        with pytest.raises(ValueError):
            registry.gauge("metric_one")
        with pytest.raises(ValueError):
            registry.histogram("metric_one")

    def test_prometheus_export_is_scrape_parseable(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Total requests").inc(3)
        registry.gauge("queue_depth", 'Depth "now"\nand later').set(2.5)
        hist = registry.histogram("latency_seconds", "Latency",
                                  buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        series = parse_prometheus(registry.to_prometheus())
        assert series["requests_total"] == 3
        assert series["queue_depth"] == 2.5
        assert series['latency_seconds_bucket{le="0.1"}'] == 1
        assert series['latency_seconds_bucket{le="1"}'] == 2
        assert series['latency_seconds_bucket{le="+Inf"}'] == 2
        assert series["latency_seconds_count"] == 2
        assert series["latency_seconds_sum"] == pytest.approx(0.55)

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 3.0))
        for value in (0.5, 1.5, 2.5, 9.0):
            hist.observe(value)
        series = parse_prometheus(registry.to_prometheus())
        counts = [series['h_bucket{le="1"}'], series['h_bucket{le="2"}'],
                  series['h_bucket{le="3"}'],
                  series['h_bucket{le="+Inf"}']]
        assert counts == [1, 2, 3, 4]

    def test_collectors_run_on_export(self):
        registry = MetricsRegistry()
        live = {"value": 1.0}
        registry.register_collector(
            lambda: registry.gauge("live").set(live["value"]))
        assert parse_prometheus(registry.to_prometheus())["live"] == 1
        live["value"] = 42.0
        assert parse_prometheus(registry.to_prometheus())["live"] == 42
        assert registry.to_dict()["live"]["series"][0]["value"] == 42


# -- latency reservoir (satellite: replaces drop-oldest) ------------------


class TestSampleReservoir:
    def test_fills_then_samples_uniformly(self):
        reservoir = SampleReservoir(capacity=100, seed=7)
        for value in range(100):
            reservoir.add(float(value))
        assert sorted(reservoir.values()) == [float(v)
                                              for v in range(100)]
        for value in range(100, 10_000):
            reservoir.add(float(value))
        assert len(reservoir) == 100
        assert reservoir.count == 10_000
        # regression vs drop-oldest: a truncating buffer would retain
        # only the newest 100 observations; Algorithm R keeps early
        # ones with probability capacity/n, so a 100-sample of 10k
        # observations lands early values with overwhelming likelihood
        assert min(reservoir.values()) < 9_900
        early = sum(1 for value in reservoir.values() if value < 5_000)
        assert 20 <= early <= 80  # ~50 expected, generous bounds

    def test_deterministic_for_seed(self):
        def run(seed):
            reservoir = SampleReservoir(capacity=10, seed=seed)
            for value in range(1000):
                reservoir.add(float(value))
            return reservoir.values()

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_clear(self):
        reservoir = SampleReservoir(capacity=4)
        for value in range(10):
            reservoir.add(float(value))
        reservoir.clear()
        assert len(reservoir) == 0 and reservoir.count == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SampleReservoir(capacity=0)

    def test_service_uses_reservoir(self):
        database = Database.from_document(
            personnel_document(target_nodes=300))
        service = database.service
        assert isinstance(service._latencies, SampleReservoir)
        database.query_many([QUERY] * 6, workers=1)
        latency = service.snapshot()["latency"]
        assert latency["samples"] == 6
        assert latency["observed"] == 6


# -- merge factor check (satellite) --------------------------------------


class TestMergeFactorCheck:
    def test_merge_requires_matching_factors(self):
        left = ExecutionMetrics(factors=CostFactors())
        right = ExecutionMetrics(
            factors=CostFactors(f_index=99.0))
        with pytest.raises(ReproError, match="cost factors"):
            left.merge(right)

    def test_merge_with_matching_factors_accumulates(self):
        factors = CostFactors()
        left = ExecutionMetrics(factors=factors)
        right = ExecutionMetrics(factors=factors)
        right.index_items = 5
        left.merge(right)
        assert left.index_items == 5


# -- service metrics wiring ----------------------------------------------


class TestServiceMetrics:
    def test_counters_and_histograms_populate(self):
        database = Database.from_document(
            personnel_document(target_nodes=300))
        database.query_many([QUERY] * 5, workers=2)
        series = parse_prometheus(
            database.service.export_metrics("prometheus"))
        assert series["repro_queries_total"] == 5
        assert series["repro_query_seconds_count"] == 5
        # 4 of 5 queries were plan-cache hits
        assert series["repro_plan_cache_hits"] == 4
        assert series["repro_plan_cache_misses"] == 1
        assert series[
            'repro_optimize_seconds_count{algorithm="DPP"}'] == 1
        # the batch path records queue wait for every submission
        assert series["repro_queue_wait_seconds_count"] == 5
        assert series["repro_buffer_pool_hit_rate"] <= 1.0

    def test_slow_query_log(self, monkeypatch):
        from repro.service import service as service_module

        database = Database.from_document(
            personnel_document(target_nodes=300),
            service_options={"trace_sample": 1})
        service = database.service
        # everything is slow now
        monkeypatch.setattr(service_module, "SLOW_QUERY_SECONDS", 0.0)
        service.query(QUERY)
        snapshot = service.snapshot()
        assert len(snapshot["slow_queries"]) == 1
        entry = snapshot["slow_queries"][0]
        assert entry["query"] == QUERY
        assert entry["seconds"] > 0
        assert service.registry.counter(
            "repro_slow_queries_total").value() == 1
        # one entry per query: the slow-query log's is its exemplar too
        (exemplar,) = snapshot["slo"]["exemplars"]
        assert {"bucket_le", "value", "trace_id"} <= exemplar.keys()
        assert exemplar["value"] == entry["seconds"]
        assert {key: exemplar[key] for key in entry} == entry
        monkeypatch.setattr(service_module, "SLOW_QUERY_SECONDS", 3600.0)
        service.query(QUERY)
        assert len(service.snapshot()["slow_queries"]) == 1
        # a request over HTTP lands in the same log, with the same keys
        monkeypatch.setattr(service_module, "SLOW_QUERY_SECONDS", 0.0)
        server = QueryServer(database, ServerConfig(port=0),
                             out=io.StringIO())
        host, port = server.start()
        try:
            assert asyncio.run(fetch(
                host, port, "GET",
                f"/query?xpath={QUERY}")).status == 200
        finally:
            server.stop()
        slow = service.snapshot()["slow_queries"]
        assert len(slow) == 2 and slow[1].keys() == entry.keys() \
            == {"query", "algorithm", "seconds", "rows", "trace_id"}

    def test_export_json_and_bad_format(self):
        database = Database.from_document(
            personnel_document(target_nodes=300))
        database.query(QUERY)
        payload = json.loads(database.service.export_metrics("json"))
        assert payload["repro_queries_total"]["type"] == "counter"
        with pytest.raises(ValueError):
            database.service.export_metrics("xml")

    def test_errors_counted(self):
        database = Database.from_document(
            personnel_document(target_nodes=300))
        with pytest.raises(Exception):
            database.service.query("//manager[")
        assert database.service.registry.counter(
            "repro_query_errors_total").value() == 1

    def test_snapshot_tallies_are_the_registry_counters(self):
        """``queries`` and ``errors`` are read off the two counters —
        there is no second tally to drift from them."""
        database = Database.from_document(
            personnel_document(target_nodes=300))
        service = database.service
        for query in (QUERY, "//manager[", QUERY, "///((", QUERY):
            try:
                service.query(query)
            except ReproError:
                pass
        snapshot = service.snapshot()
        registry = service.registry
        assert snapshot["queries"] == 3 == registry.counter(
            "repro_queries_total").value()
        assert snapshot["errors"] == 2 == registry.counter(
            "repro_query_errors_total").value()
        assert snapshot["latency"]["observed"] == 3
        by_name = {entry["name"]: entry
                   for entry in snapshot["slo"]["objectives"]}
        assert by_name["query_errors"]["events"] == 5
        assert by_name["query_errors"]["bad"] == 2


# -- zero-overhead guarantee ---------------------------------------------


class TestZeroOverheadWhenDisabled:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_untraced_operators_have_no_span(self, database, engine):
        from repro.engine.context import EngineContext
        from repro.engine.executor import Executor, _operator_children

        pattern = database.compile(QUERY)
        plan = database.optimize(pattern).plan
        context = EngineContext(database.index, database.document,
                                factors=database.cost_factors)
        executor = Executor(context, pattern)
        root = executor.build(plan, context.for_run(), engine)
        assert type(root).__name__.startswith("Block") == (
            engine == "block")
        stack = [root]
        while stack:
            operator = stack.pop()
            assert operator._span is None
            stack.extend(_operator_children(operator))


# -- CLI surfaces --------------------------------------------------------


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


class TestCli:
    def test_explain_analyze(self):
        code, output = run_cli("explain", "--dataset", "pers",
                               "--nodes", "400", "--analyze", QUERY)
        assert code == 0
        assert "q=" in output and "totals:" in output
        assert "IndexScan" in output

    @pytest.mark.parametrize("engine", ENGINES)
    def test_explain_analyze_engines(self, engine, tmp_path):
        """The tree ``explain --analyze`` ships is what either engine
        measures: operator for operator, the same plan-node labels and
        the same counter shares as a plan-level run on *engine*."""
        target = tmp_path / "report.json"
        code, _ = run_cli("explain", "--dataset", "pers", "--nodes",
                          "400", "--analyze", "--json", str(target),
                          QUERY)
        assert code == 0

        def flat(node):
            return [(node["detail"], node["counters"])] + [
                entry for child in node["children"]
                for entry in flat(child)]

        database = Database.from_document(
            dataset_document("pers", seed=42, target_nodes=400))
        shipped = flat(json.loads(target.read_text())["plan"])
        assert shipped == flat(
            analyzed(database, QUERY, engine).span.to_dict())
        assert len(shipped) == 5

    def test_explain_analyze_json(self, tmp_path):
        target = tmp_path / "report.json"
        code, output = run_cli("explain", "--dataset", "pers",
                               "--nodes", "400", "--analyze",
                               "--json", str(target), QUERY)
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["analyze"] is True
        assert payload["plan"]["children"]

    def test_explain_trace(self):
        code, output = run_cli("explain", "--dataset", "pers",
                               "--nodes", "400", "--trace", QUERY)
        assert code == 0
        assert "search trace" in output
        assert "generate" in output and "chosen plan" in output

    def test_explain_trace_rejects_non_dpp(self):
        code, _ = run_cli("explain", "--dataset", "pers",
                          "--nodes", "400", "--trace",
                          "--algorithm", "FP", QUERY)
        assert code == 1

    def test_stats_prometheus(self):
        code, output = run_cli("stats", "--dataset", "pers",
                               "--nodes", "400", "--serve", "2",
                               "--format", "prometheus")
        assert code == 0
        series = parse_prometheus(output)
        # 4 Pers paper queries x 2 rounds
        assert series["repro_queries_total"] == 8
        assert series["repro_plan_cache_hit_rate"] == 0.5

    def test_stats_json(self):
        code, output = run_cli("stats", "--dataset", "pers",
                               "--nodes", "400", "--serve", "1",
                               "--format", "json")
        assert code == 0
        payload = json.loads(output)
        assert payload["repro_queries_total"]["series"][0]["value"] == 4

    def test_stats_table_unchanged(self):
        code, output = run_cli("stats", "--dataset", "pers",
                               "--nodes", "400")
        assert code == 0
        assert "nodes" in output and "tags:" in output
