"""Distributed-trace stitching, SLO tracking, and write-path spans.

The stitching tests pin the PR's core invariant: a sharded query's
stitched trace must attribute the *exact* cost-model counters — the
per-shard subtree shares sum to the merged execution counters with
integer equality, across shard counts and both engines.  Parentage
must be well-formed (unique span ids, every child pointing at its
parent) because the trace crosses process boundaries and is rebuilt
from serialized payloads.
"""

from __future__ import annotations

import json
import queue
import warnings

import pytest

from repro.api import Database
from repro.core.pattern import QueryPattern
from repro.document.parser import parse_xml
from repro.errors import ReproError
from repro.obs.querylog import QueryLog
from repro.obs.registry import BucketRecorder, MetricsRegistry
from repro.obs.slo import DEFAULT_OBJECTIVES, SLObjective, SLOTracker
from repro.obs.spans import SPAN_COUNTERS, Span, TraceContext
from repro.shard.partition import partition_document
from repro.shard.sharded import ShardedDatabase
from repro.txn.db import create_database, open_database
from repro.workloads.personnel import personnel_document
from tests.conftest import PERSONNEL_XML

WIDGETS_XML = "<catalog><widget><name>gizmo</name></widget></catalog>"


def chain() -> QueryPattern:
    return QueryPattern.build({
        "nodes": ["manager", "employee", "name"],
        "edges": [(0, 1, "//"), (1, 2, "/")],
    })


def walk(span: Span):
    yield span
    for child in span.children:
        yield from walk(child)


def shard_wrappers(span: Span) -> list[Span]:
    return [node for node in walk(span) if node.name == "Shard"]


def subtree_counter_sums(span: Span) -> dict[str, int]:
    totals: dict[str, int] = {}
    for node in walk(span):
        for name, value in node.counters().items():
            totals[name] = totals.get(name, 0) + int(value)
    return totals


# -- trace stitching ------------------------------------------------------


class TestTraceStitching:
    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_counter_shares_sum_exactly_across_engines(self, shards):
        document = personnel_document(target_nodes=300)
        pattern = chain()
        with ShardedDatabase(document, shards=shards) as sharded:
            plan = sharded.optimize(pattern).plan
            for engine in ("block", "tuple"):
                execution = sharded.execute(plan, pattern,
                                            engine=engine, spans=True)
                span = execution.span
                assert span is not None
                assert span.name == "ShardScatterGather"
                wrappers = shard_wrappers(span)
                assert len(wrappers) == shards
                stitched: dict[str, int] = {}
                for wrapper in wrappers:
                    for name, value in subtree_counter_sums(
                            wrapper).items():
                        stitched[name] = stitched.get(name, 0) + value
                for name in SPAN_COUNTERS:
                    assert stitched.get(name, 0) == int(
                        getattr(execution.metrics, name)), (
                        engine, shards, name)

    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_parentage_and_span_ids_well_formed(self, shards):
        document = personnel_document(target_nodes=300)
        pattern = chain()
        with ShardedDatabase(document, shards=shards) as sharded:
            plan = sharded.optimize(pattern).plan
            execution = sharded.execute(plan, pattern, spans=True)
            span = execution.span
            assert span is not None
            spans = list(walk(span))
            ids = [node.span_id for node in spans]
            assert all(ids), "every span must be stamped"
            assert len(ids) == len(set(ids)), "span ids must be unique"
            assert all(node.trace_id == span.trace_id
                       for node in spans)
            assert span.parent_span_id == ""

            def check(parent: Span) -> None:
                for child in parent.children:
                    assert child.parent_span_id == parent.span_id, (
                        child.name, child.span_id)
                    check(child)

            check(span)
            # coordinator spans are stamped under the "c" prefix and
            # carry no metrics; each worker subtree keeps its own
            # "s<shard>-" prefix from the worker-side stamping
            assert span.span_id.startswith("c")
            assert span.metrics is None
            for wrapper in shard_wrappers(span):
                assert wrapper.metrics is None
                assert len(wrapper.children) == 1
                subtree = wrapper.children[0]
                assert subtree.span_id.startswith("s")
                assert subtree.parent_span_id == wrapper.span_id

    def test_caller_trace_context_is_honored_and_recorded(self):
        document = personnel_document(target_nodes=250)
        pattern = chain()
        context = TraceContext.new()
        with ShardedDatabase(document, shards=2) as sharded:
            plan = sharded.optimize(pattern).plan
            before = sharded.tracer.recorded
            execution = sharded.execute(plan, pattern, spans=True,
                                        trace_context=context)
            span = execution.span
            assert span is not None
            assert span.trace_id == context.trace_id
            assert sharded.tracer.recorded == before + 1
            assert sharded.tracer.traces()[-1] is span
            # the trace round-trips through JSON (the /traces payload)
            payload = json.loads(json.dumps(span.to_dict()))
            rebuilt = Span.from_dict(payload)
            assert (subtree_counter_sums(rebuilt)
                    == subtree_counter_sums(span))

    def test_untraced_execution_carries_no_span(self):
        document = personnel_document(target_nodes=250)
        pattern = chain()
        with ShardedDatabase(document, shards=2) as sharded:
            plan = sharded.optimize(pattern).plan
            before = sharded.tracer.recorded
            execution = sharded.execute(plan, pattern)
            assert execution.span is None
            assert sharded.tracer.recorded == before


# -- merged-statistics provenance -----------------------------------------


class TestStatisticsProvenance:
    def test_fractions_partition_the_merged_mass(self):
        document = personnel_document(target_nodes=300)
        partition = partition_document(document, 3)
        provenance = partition.statistics_provenance(
            tags=["manager", "employee", "name"])
        assert set(provenance) == {"manager", "employee", "name"}
        histogram = document.tag_histogram()
        for tag, entries in provenance.items():
            assert entries, tag
            assert sum(entry["fraction"] for entry in entries) == (
                pytest.approx(1.0))
            # the replicated root is excluded, so per-shard counts sum
            # to the corpus total for non-root tags
            assert (sum(entry["count"] for entry in entries)
                    == histogram[tag])

    def test_sharded_explain_renders_provenance(self):
        document = personnel_document(target_nodes=250)
        with ShardedDatabase(document, shards=2) as sharded:
            report = sharded.explain("//manager//employee/name")
            assert report.shards is not None
            assert report.shards["count"] == 2
            rendered = report.render()
            assert "statistics[employee]" in rendered
            assert "shard[0]" in rendered
            assert report.to_dict()["shards"]["statistics_provenance"]


# -- write-path spans and histograms --------------------------------------


class TestWritePathInstrumentation:
    def test_commit_records_staged_span(self):
        database = Database.from_document(
            parse_xml(PERSONNEL_XML, name="pers"))
        before = database.tracer.recorded
        with database.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))
        assert database.tracer.recorded == before + 1
        span = database.tracer.traces()[-1]
        assert span.name == "commit"
        assert span.trace_id
        assert span.span_id.startswith("t")
        stages = [child.name for child in span.children]
        assert stages == ["validate", "cow", "wal", "publish"]
        wal_span = span.children[2]
        assert [child.name for child in wal_span.children] == ["fsync"]
        metrics = database.transactions.metrics
        assert metrics.commit_seconds > 0
        assert metrics.validate_seconds > 0
        assert metrics.cow_seconds > 0
        assert metrics.wal_seconds >= metrics.fsync_seconds >= 0
        assert database.transactions.commit_latency.count == 1
        assert database.transactions.commit_bytes.count == 1
        assert database.transactions.commit_bytes.total > 0

    def test_wal_fsync_histogram_fills_on_durable_commits(
            self, tmp_path):
        database = create_database(tmp_path / "db", xml=PERSONNEL_XML)
        with database.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))
        stats = database.transactions.wal.stats
        assert stats.syncs >= 1
        assert stats.fsync_latency.count == stats.syncs
        assert stats.sync_seconds > 0
        assert stats.last_sync_seconds > 0
        text = database.service.export_metrics("prometheus")
        assert "repro_wal_fsync_seconds_bucket" in text
        assert f"repro_wal_fsync_seconds_count {stats.syncs}" in text
        assert "repro_txn_commit_seconds_count 1" in text
        assert "repro_txn_commit_wal_bytes_count 1" in text

    def test_recovery_timing_surfaces_as_gauges(self, tmp_path):
        database = create_database(tmp_path / "db", xml=PERSONNEL_XML)
        with database.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))
        reopened = open_database(tmp_path / "db")
        recovery = reopened.transactions.last_recovery
        assert recovery.seconds > 0
        assert reopened.transactions.metrics.recovery_seconds == (
            pytest.approx(recovery.seconds))
        text = reopened.service.export_metrics("prometheus")
        assert "repro_recovery_clean 1" in text
        assert f"repro_recovery_replayed_pages "\
               f"{recovery.replayed_pages}" in text

    def test_checkpoint_records_span_and_seconds(self, tmp_path):
        database = create_database(tmp_path / "db", xml=PERSONNEL_XML)
        with database.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))
        database.transactions.checkpoint()
        span = database.tracer.traces()[-1]
        assert span.name == "checkpoint"
        assert span.span_id.startswith("ckpt-")
        assert database.transactions.metrics.checkpoint_seconds > 0


# -- SLO tracking ---------------------------------------------------------


class TestSLOTracker:
    def test_compliance_and_burn_rates(self):
        tracker = SLOTracker((
            SLObjective(name="lat", indicator="latency", target=0.9,
                        threshold_seconds=0.1),
        ))
        for _ in range(8):
            tracker.observe_query(0.01)
        tracker.observe_query(0.5)
        tracker.observe_query(0.5)
        entry = tracker.snapshot()["objectives"][0]
        assert entry["events"] == 10
        assert entry["bad"] == 2
        assert entry["compliance"] == pytest.approx(0.8)
        assert entry["met"] is False
        # 20% bad against a 10% budget burns at 2x
        assert entry["burn_rate"] == pytest.approx(2.0)
        assert entry["recent_burn_rate"] == pytest.approx(2.0)

    def test_errors_violate_latency_objectives_too(self):
        tracker = SLOTracker(DEFAULT_OBJECTIVES)
        tracker.observe_query(0.001, error=True)
        by_name = {entry["name"]: entry
                   for entry in tracker.snapshot()["objectives"]}
        assert by_name["query_errors"]["bad"] == 1
        assert by_name["query_latency_p99"]["bad"] == 1
        # an errored query never yielded a first result: bad for the
        # time-to-first objective even without a measurement
        assert by_name["time_to_first_result"]["bad"] == 1
        # a good query without a measurement neither helps nor hurts
        tracker.observe_query(0.001)
        by_name = {entry["name"]: entry
                   for entry in tracker.snapshot()["objectives"]}
        assert by_name["time_to_first_result"]["events"] == 1
        assert by_name["query_latency_p99"]["events"] == 2

    def test_exemplars_link_buckets_to_traces(self):
        tracker = SLOTracker(DEFAULT_OBJECTIVES)

        def observe(seconds, trace_id, error=False):
            tracker.observe_query(seconds, error=error, entry={
                "query": "//a", "algorithm": "DPP", "seconds": seconds,
                "rows": 1, "trace_id": trace_id})

        observe(0.003, "abc123")
        observe(0.004, "def456")
        observe(30.0, "slow789")
        observe(0.2, "err000", error=True)
        observe(0.2, "")  # untraced: nothing to link to
        snapshot = tracker.snapshot()["exemplars"]
        exemplars = {entry["bucket_le"]: entry["trace_id"]
                     for entry in snapshot}
        # an exemplar is the query's entry, so it names its query
        assert all(entry["query"] == "//a"
                   and entry["value"] == entry["seconds"]
                   for entry in snapshot)
        assert len(snapshot) == 2
        # same bucket: the most recent exemplar wins; errors never
        # become exemplars (their trace would not show a good query)
        assert "def456" in exemplars.values()
        assert "abc123" not in exemplars.values()
        assert exemplars.get("+Inf") == "slow789"
        assert "err000" not in exemplars.values()

    def test_collect_sets_gauge_families(self):
        registry = MetricsRegistry()
        tracker = SLOTracker(DEFAULT_OBJECTIVES)
        tracker.observe_query(0.01)
        tracker.collect(registry)
        text = registry.to_prometheus()
        assert ('repro_slo_error_budget_burn{objective='
                '"query_latency_p99"}') in text
        assert 'window="recent"' in text
        assert ('repro_slo_compliance_ratio{objective='
                '"query_errors"} 1' in text)

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SLObjective(name="x", indicator="nope", target=0.5)
        with pytest.raises(ValueError):
            SLObjective(name="x", indicator="latency", target=1.0,
                        threshold_seconds=0.1)
        with pytest.raises(ValueError):
            SLObjective(name="x", indicator="latency", target=0.5)
        with pytest.raises(ValueError):
            SLOTracker(())
        objective = SLObjective(name="x", indicator="latency",
                                target=0.9, threshold_seconds=1.0)
        with pytest.raises(ValueError):
            SLOTracker((objective, objective))


class TestServiceObservability:
    def test_traced_service_queries_feed_slo_and_traces(self):
        database = Database.from_document(
            parse_xml(PERSONNEL_XML, name="pers"),
            service_options={"trace_sample": 1})
        service = database.service
        service.query("//manager//employee/name")
        assert len(service.traces()) == 1
        trace = service.traces()[0]
        assert trace["trace_id"]
        snapshot = service.snapshot()
        by_name = {entry["name"]: entry
                   for entry in snapshot["slo"]["objectives"]}
        assert by_name["query_latency_p99"]["events"] == 1
        assert by_name["query_errors"]["bad"] == 0
        # the exemplar joins the latency bucket to the kept trace
        exemplars = snapshot["slo"]["exemplars"]
        assert [entry["trace_id"] for entry in exemplars] == [
            trace["trace_id"]]
        json.dumps(snapshot["slo"])  # the /slo payload is JSON-able

    def test_query_errors_burn_the_error_budget(self):
        database = Database.from_document(
            parse_xml(PERSONNEL_XML, name="pers"))
        service = database.service
        with pytest.raises(ReproError):
            service.query("//manager[")
        by_name = {entry["name"]: entry
                   for entry in service.slo.snapshot()["objectives"]}
        assert by_name["query_errors"]["bad"] == 1
        assert by_name["query_errors"]["burn_rate"] > 1.0

    def test_trace_sampling_is_one_in_n(self):
        database = Database.from_document(
            parse_xml(PERSONNEL_XML, name="pers"),
            service_options={"trace_sample": 3})
        service = database.service
        for _ in range(6):
            service.query("//manager/name")
        assert len(service.traces()) == 2

    def test_untraced_service_keeps_tracer_empty(self):
        database = Database.from_document(
            parse_xml(PERSONNEL_XML, name="pers"))
        database.service.query("//manager/name")
        assert database.tracer.recorded == 0


# -- query-log drop accounting --------------------------------------------


class TestQueryLogDrops:
    def test_drop_warns_once_and_counts_every_loss(self, tmp_path):
        log = QueryLog(tmp_path / "q.jsonl")
        try:
            def always_full(_record):
                raise queue.Full

            log._queue.put_nowait = always_full
            with pytest.warns(RuntimeWarning,
                              match="dropping records"):
                log.record({"query": "//a"})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                log.record({"query": "//b"})
            assert log.dropped == 2
        finally:
            log.close()

    def test_service_collector_exports_drop_counter(self, tmp_path):
        database = Database.from_document(
            parse_xml(PERSONNEL_XML, name="pers"))
        log = QueryLog(tmp_path / "q.jsonl")
        database.attach_query_log(log)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                log._count_drop("test")
                log._count_drop("test")
            text = database.service.export_metrics("prometheus")
            assert "repro_querylog_dropped_total 2" in text
            # the counter is a delta mirror: re-exporting must not
            # double-count old drops
            text = database.service.export_metrics("prometheus")
            assert "repro_querylog_dropped_total 2" in text
        finally:
            log.close()


# -- bucket recorder ------------------------------------------------------


class TestBucketRecorder:
    def test_observe_and_mirror(self):
        recorder = BucketRecorder((0.1, 1.0))
        recorder.observe(0.05)
        recorder.observe(0.5)
        recorder.observe(5.0)
        assert recorder.count == 3
        assert recorder.total == pytest.approx(5.55)
        registry = MetricsRegistry()
        histogram = registry.histogram("test_seconds", "t",
                                       buckets=(0.1, 1.0))
        recorder.mirror_into(histogram)
        text = registry.to_prometheus()
        assert 'test_seconds_bucket{le="0.1"} 1' in text
        assert 'test_seconds_bucket{le="1"} 2' in text
        assert 'test_seconds_bucket{le="+Inf"} 3' in text
        assert "test_seconds_count 3" in text
