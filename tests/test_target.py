"""The query-target contract, run against both back ends.

:class:`~repro.target.QueryTarget` owns planning and serving;
:class:`~repro.api.Database` and
:class:`~repro.shard.sharded.ShardedDatabase` supply execution.  Every
test here runs on one of each over the same document (one worker
fleet for the module — spawning costs real time and this is tier-1)
and asserts the two are interchangeable: same signatures, same plans,
same bindings, same report shapes.
"""

from __future__ import annotations

import inspect

import pytest

from repro import cli
from repro.api import Database
from repro.core.plans import canonical_plan_digest
from repro.errors import StorageError
from repro.obs.querylog import QueryLog
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import TraceContext
from repro.shard import ShardedDatabase
from repro.target import QueryTarget
from repro.txn import create_database
from repro.workloads import PAPER_QUERIES
from repro.workloads.personnel import personnel_document

QUERY = "//manager//employee/name"
ALGORITHMS = ("DP", "DPP", "DPAP-EB", "DPAP-LD", "FP")

#: written once, in the base — neither back end may define its own
BASE_ONLY = ("compile", "warm_statistics", "optimize", "query",
             "query_many", "whatif", "time_to_first", "explain",
             "service", "estimator", "execute",
             "attach_query_log", "_finish_run", "_retain_trace",
             "__enter__", "__exit__")
#: supplied or extended per back end, under one signature
PER_BACKEND = ("stream_execute", "collect_gauges", "stats", "close")

#: what a fleet's log record shares with a single node's for one plan
#: (timing, measured cost and the per-shard operators differ)
RECORD_PARITY_KEYS = ("query", "signature", "algorithm", "engine", "plan",
                      "plan_digest", "estimated_cost", "rows",
                      "statistics_epoch")

SERVICE_KEYS = {"queries", "errors", "latency", "slow_queries",
                "plan_cache", "engine", "slo", "statistics_epoch"}


@pytest.fixture(scope="module")
def document():
    return personnel_document(target_nodes=300, seed=7)


@pytest.fixture(scope="module")
def single(document):
    return Database.from_document(document)


@pytest.fixture(scope="module")
def fleet(document):
    with ShardedDatabase(document, shards=2) as database:
        yield database


@pytest.fixture(params=["single", "fleet"])
def target(request) -> QueryTarget:
    return request.getfixturevalue(request.param)


def bindings(execution) -> set:
    return set(execution.canonical())


# -- one surface ---------------------------------------------------------


def test_base_owned_methods_are_defined_once():
    for name in BASE_ONLY:
        assert name in vars(QueryTarget)
        assert name not in vars(Database), name
        assert name not in vars(ShardedDatabase), name


def test_per_backend_methods_share_one_signature():
    for name in PER_BACKEND:
        expected = inspect.signature(getattr(QueryTarget, name))
        assert inspect.signature(getattr(Database, name)) == expected
        assert inspect.signature(
            getattr(ShardedDatabase, name)) == expected


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_both_targets_choose_the_same_plan(single, fleet, algorithm):
    pattern = single.compile(QUERY)
    assert fleet.compile(QUERY).describe() == pattern.describe()
    digests = {
        canonical_plan_digest(
            database.optimize(pattern, algorithm=algorithm).plan,
            pattern)
        for database in (single, fleet)}
    assert len(digests) == 1


# -- planning and serving, per target -------------------------------------


def test_query_and_query_many_agree_with_single_node(target, single):
    expected = bindings(single.query(QUERY).execution)
    assert expected
    assert bindings(target.query(QUERY).execution) == expected
    results = target.query_many([QUERY] * 3, workers=2)
    assert [bindings(result.execution) for result in results] \
        == [expected] * 3


def test_explain_plan_space_and_analyze(target, single):
    report = target.explain(QUERY, plan_space=True, top_k=2)
    assert not report.analyze and report.span is None
    assert report.plan_space.winner_digest
    before = len(target.tracer.traces())
    report = target.explain(QUERY, analyze=True)
    assert report.analyze and report.span is report.execution.span
    assert report.trace_id and report.span.trace_id == report.trace_id
    assert bindings(report.execution) \
        == bindings(single.query(QUERY).execution)
    assert len(target.tracer.traces()) == before + 1
    assert {"query", "algorithm", "analyze", "trace_id",
            "rows", "totals"} <= set(report.to_dict())


def test_whatif_and_time_to_first(target):
    result = target.whatif(QUERY, tag_scale={"employee": 50.0})
    assert result.baseline_digest and result.hypothetical_digest
    timing = target.time_to_first(QUERY, results=2)
    assert timing.first_count == 2 <= timing.total_count
    assert 0.0 < timing.first_seconds <= timing.total_seconds


def test_stats_carry_the_service_keys(target):
    target.query_many([QUERY], workers=1)
    stats = target.stats()
    assert SERVICE_KEYS <= set(stats)
    assert stats["statistics_epoch"] == target.statistics_epoch
    assert stats["queries"] >= 1


def test_collect_gauges_exports_each_backends_series(single, fleet):
    for database, family in ((single, "repro_buffer_pool_hits"),
                             (fleet, "repro_shard_nodes")):
        registry = MetricsRegistry()
        database.collect_gauges(registry)
        assert f"# TYPE {family} gauge" in registry.to_prometheus()
        # and the service's scrape reaches them through the same hook
        assert family in database.service.export_metrics("prometheus")


def logged(target, plan, pattern, spans=False) -> dict:
    """The one record *target* logs for a drained run of *plan*."""
    with QueryLog(None) as log:
        target.attach_query_log(log)
        try:
            target.execute(plan, pattern, spans=spans, algorithm="DPP")
        finally:
            target.attach_query_log(None)
        (record,) = log.records()
    return record


def test_a_fleet_logs_the_single_nodes_record():
    """One finish step on both back ends: a fleet's record of a plan is
    a single node's, but for timing, measured cost and operators — and
    its operators are the shards' operator spans, no coordinator
    stage among them."""
    document = personnel_document(target_nodes=2000, seed=42)
    single = Database.from_document(document)
    with ShardedDatabase(document, shards=2) as fleet:
        for name in ("Q.Pers.1.a", "Q.Pers.2.c", "Q.Pers.3.d",
                     "Q.Pers.4.d"):
            pattern = PAPER_QUERIES[name].pattern
            plan = single.optimize(pattern).plan
            expected = logged(single, plan, pattern)
            record = logged(fleet, plan, pattern)
            assert expected["rows"] > 0, name
            assert {key: record[key] for key in RECORD_PARITY_KEYS} \
                == {key: expected[key] for key in RECORD_PARITY_KEYS}, name
            assert "operators" not in record
            single_operators = [
                entry["operator"] for entry in
                logged(single, plan, pattern, spans=True)["operators"]]
            assert len(single_operators) == len(list(plan.walk()))
            traced = logged(fleet, plan, pattern, spans=True)
            assert sorted(entry["operator"]
                          for entry in traced["operators"]) \
                == sorted(single_operators * 2), name
            assert traced["trace_id"] == fleet.tracer.traces()[-1].trace_id


# -- the tracing rule ------------------------------------------------------


def test_a_trace_context_forces_a_traced_run(target):
    pattern = target.compile(QUERY)
    plan = target.optimize(pattern).plan
    assert target.execute(plan, pattern).span is None
    context = TraceContext.new()
    result = target.execute(plan, pattern, trace_context=context)
    assert result.span is not None
    assert result.span.trace_id == context.trace_id
    context = TraceContext.new()
    stream = target.stream_execute(plan, pattern, trace_context=context)
    assert len(list(stream)) == len(result)
    assert stream.span.trace_id == context.trace_id
    assert target.tracer.traces()[-1] is stream.span


# -- one run path ------------------------------------------------------------


@pytest.mark.parametrize("traced", [False, True])
def test_execute_is_the_stream_drained(target, traced):
    pattern = target.compile(QUERY)
    plan = target.optimize(pattern).plan
    before = target.tracer.recorded
    result = target.execute(plan, pattern, spans=traced)
    executed = target.tracer.recorded
    stream = target.stream_execute(plan, pattern, spans=traced)
    rows = stream.fetchall()
    assert rows and stream.finished and stream.fetchall() == []
    assert rows == result.rows  # same rows, same order
    assert list(target.stream_execute(plan, pattern)) == result.tuples
    assert stream.schema.node_ids == result.schema.node_ids
    assert stream.metrics.counters() == result.metrics.counters()
    assert stream.produced == len(result)
    if not traced:
        assert result.span is None and stream.span is None
        assert target.tracer.recorded == before
        return
    assert result.span.name == stream.span.name
    assert result.span.output_rows == stream.span.output_rows == len(rows)
    # one finish hook per back end: a traced run records exactly one
    # tree, drained by execute or read as a stream, node or fleet
    assert executed == before + 1
    assert target.tracer.recorded == executed + 1
    assert target.tracer.traces()[-1] is stream.span


def test_a_sampled_service_query_leaves_exactly_one_tree(target):
    service = target.service
    service.trace_sample = 1
    try:
        before = target.tracer.recorded
        result = service.query(QUERY)
        assert target.tracer.recorded == before + 1
        assert target.tracer.traces()[-1] is result.execution.span
    finally:
        service.trace_sample = 0
    # and so does a traced plan-level run on the reference engine
    execution = target.execute(result.plan, target.compile(QUERY),
                               engine="tuple", spans=True)
    assert target.tracer.recorded == before + 2
    assert target.tracer.traces()[-1] is execution.span


@pytest.mark.parametrize("start", [lambda stream: None, iter],
                         ids=["unread", "iter"])
def test_closing_an_unpulled_stream_finishes_and_records_it(target,
                                                            start):
    """``iter(stream)`` then ``close()`` closes a generator that never
    started, whose ``finally`` never runs: at the parent the stream
    stayed unfinished, unrecorded and (on a fleet) unstitched."""
    pattern = target.compile(QUERY)
    plan = target.optimize(pattern).plan
    before = target.tracer.recorded
    stream = target.stream_execute(plan, pattern, spans=True)
    start(stream)
    stream.close()
    assert stream.finished and stream.produced == 0
    assert target.tracer.recorded == before + 1
    assert target.tracer.traces()[-1] is stream.span
    assert list(stream) == []


# -- one way to open it ------------------------------------------------------


def test_open_target_closes_the_source_of_a_sharded_db(
        document, tmp_path, monkeypatch):
    from repro.txn import db as txn_db

    create_database(tmp_path / "db", document=document).close()
    opened = []
    open_database = txn_db.open_database

    def recording_open(path, **kwargs):
        opened.append(open_database(path, **kwargs))
        return opened[-1]

    # the CLI imports the name from the module at call time
    monkeypatch.setattr(txn_db, "open_database", recording_open)
    arguments = cli.build_parser().parse_args(
        ["query", "--db", str(tmp_path / "db"), "--shards", "2", QUERY])
    with cli._open_target(arguments) as database:
        assert isinstance(database, ShardedDatabase)
        (source,) = opened
        with pytest.raises(StorageError, match="closed"):
            source.disk.sync()
        with pytest.raises(StorageError, match="closed"):
            source.transactions.wal.sync()
        assert bindings(database.query(QUERY).execution)
    assert database.workers.closed


def test_open_target_closes_a_single_node_db_on_exit(document, tmp_path):
    with create_database(tmp_path / "db", document=document) as created:
        assert bindings(created.query(QUERY).execution)
    created.close()  # idempotent
    arguments = cli.build_parser().parse_args(
        ["audit", "--db", str(tmp_path / "db"), "--log", "unused"])
    with cli._open_target(arguments) as database:
        assert isinstance(database, Database)
        database.disk.sync()  # open while the verb runs
    for source in (created, database):
        with pytest.raises(StorageError, match="closed"):
            source.disk.sync()
        with pytest.raises(StorageError, match="closed"):
            source.transactions.wal.sync()
