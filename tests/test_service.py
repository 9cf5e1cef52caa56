"""Serving-layer tests: plan cache, concurrency, metrics isolation.

Covers the service acceptance criteria directly: repeated queries hit
the plan cache (one optimization per distinct pattern per statistics
epoch), concurrent batches return byte-identical results to serial
execution without leaking buffer-pool pins, and per-execution metrics
never cross-pollute between runs sharing one engine context.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import Database
from repro.core.pattern import canonical_signature, pattern_isomorphism
from repro.core.plans import remap_plan
from repro.engine.context import EngineContext
from repro.engine.executor import Executor
from repro.errors import ReproError
from repro.service import PlanCache, cache_key
from repro.workloads.personnel import personnel_document
from repro.workloads.queries import PAPER_QUERIES
from repro.xpath import compile_xpath

REPEATED = "//manager//employee/name"
UNIQUE = [
    "//manager//department/name",
    "//manager/employee/phone",
    "//department//employee/name",
    "//manager//manager/department",
]


@pytest.fixture
def database():
    return Database.from_document(personnel_document(target_nodes=900))


# -- plan cache ------------------------------------------------------------


class TestPlanCache:
    def test_repeated_query_optimizes_once(self, database):
        results = database.query_many([REPEATED] * 100, workers=1)
        assert len(results) == 100
        cache = database.stats()["plan_cache"]
        assert cache["misses"] == 1
        assert cache["hits"] == 99
        assert cache["hit_rate"] >= 0.99

    def test_concurrent_misses_are_single_flight(self, database):
        database.query_many([REPEATED] * 100, workers=4)
        cache = database.stats()["plan_cache"]
        assert cache["misses"] == 1
        assert cache["hit_rate"] >= 0.99

    def test_isomorphic_patterns_share_one_entry(self, database):
        first = compile_xpath(REPEATED)
        second = compile_xpath(REPEATED)
        assert first is not second
        database.query_many([first, second], workers=1)
        cache = database.stats()["plan_cache"]
        assert cache["misses"] == 1 and cache["hits"] == 1

    def test_algorithms_get_distinct_entries(self, database):
        database.query_many([REPEATED], algorithm="DPP", workers=1)
        database.query_many([REPEATED], algorithm="DP", workers=1)
        assert database.stats()["plan_cache"]["misses"] == 2

    def test_lru_eviction(self, database):
        cache = PlanCache(capacity=2)
        patterns = [compile_xpath(text) for text in UNIQUE[:3]]
        for pattern in patterns:
            key = cache_key(pattern, "DPP", {}, 1)
            cache.get_or_compute(
                key, pattern,
                lambda p=pattern: database.optimize(p))
        assert len(cache) == 2
        assert cache.stats.evictions == 1

    def test_reload_invalidates_cache_and_bumps_epoch(self, database):
        [before] = database.query_many([REPEATED], workers=1)
        epoch = database.statistics_epoch
        database.reload(personnel_document(target_nodes=300, seed=7))
        assert database.statistics_epoch == epoch + 1
        assert database.stats()["plan_cache"]["size"] == 0
        [after] = database.query_many([REPEATED], workers=1)
        # new document, new statistics epoch: the query re-optimizes
        assert database.stats()["plan_cache"]["misses"] == 2
        assert len(after.execution) != len(before.execution) or \
            after.execution.canonical() != before.execution.canonical()

    def test_reload_requires_a_document(self):
        empty = Database()
        with pytest.raises(ReproError):
            empty.reload(personnel_document(target_nodes=100))

    def test_cached_plan_remaps_to_requesting_pattern_ids(self, database):
        pattern = compile_xpath(REPEATED)
        cached = database.service.optimize_cached(pattern)
        again = database.service.optimize_cached(compile_xpath(REPEATED))
        assert again.plan.pattern_nodes() == frozenset(
            range(len(pattern)))
        assert cached.estimated_cost == again.estimated_cost


class TestCanonicalIdentity:
    def test_isomorphic_patterns_equal_signatures(self):
        from repro.core.pattern import QueryPattern

        left = QueryPattern.build({
            "nodes": ["a", "b", "c"],
            "edges": [(0, 1, "//"), (0, 2, "/")],
        })
        right = QueryPattern.build({
            "nodes": ["a", "c", "b"],
            "edges": [(0, 2, "//"), (0, 1, "/")],
        })
        assert canonical_signature(left) == canonical_signature(right)
        mapping = pattern_isomorphism(left, right)
        assert mapping[0] == 0
        assert mapping[1] == 2 and mapping[2] == 1

    def test_order_by_distinguishes_signatures(self):
        from repro.core.pattern import QueryPattern

        spec = {"nodes": ["a", "b"], "edges": [(0, 1, "//")]}
        plain = QueryPattern.build(spec)
        ordered = QueryPattern.build({**spec, "order_by": 1})
        assert canonical_signature(plain) != canonical_signature(ordered)

    def test_remapped_plan_executes_identically(self, database):
        source = compile_xpath(REPEATED)
        target = compile_xpath(REPEATED)
        plan = database.optimize(source).plan
        mapping = pattern_isomorphism(source, target)
        remapped = remap_plan(plan, mapping)
        original = database.execute(plan, source).canonical()
        replayed = database.execute(remapped, target).canonical()
        assert original == replayed


class TestCompiledTexts:
    """``QueryService.stream`` compiles a query text once: a repeated
    text is the pattern its cached plan was made for."""

    def test_the_same_text_is_the_same_pattern(self, database):
        service = database.service
        first = service.query(REPEATED)
        again = service.query(REPEATED)
        assert again.optimization.pattern is first.optimization.pattern
        assert again.optimization.plan is first.optimization.plan
        assert again.execution.rows == first.execution.rows
        assert database.stats()["plan_cache"]["hits"] == 1

    def test_the_map_holds_at_most_the_plan_cache_capacity(self,
                                                          database):
        service = database.service
        service.cache = PlanCache(capacity=3)
        texts = [f"//employee[@id != 'u{index}']/name"
                 for index in range(8)]
        for text in texts:
            service.query(text)
            assert len(service._compiled) <= 3
        assert list(service._compiled) == texts[-3:]
        # an evicted text compiles again, the oldest text making room
        hot = service._compiled[texts[-1]]
        service.query(texts[0])
        assert list(service._compiled) == [*texts[-2:], texts[0]]
        assert service.query(texts[-1]).optimization.pattern is hot

    def test_an_isomorphic_text_hits_through_the_remap(self, database):
        service = database.service
        left = "//manager[./employee/name][./department/name]"
        right = "//manager[./department/name][./employee/name]"
        first = service.query(left)
        second = service.query(right)
        stats = database.stats()["plan_cache"]
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert second.optimization.pattern is not \
            first.optimization.pattern
        # the plan was remapped onto the second text's node ids
        assert second.optimization.plan is not first.optimization.plan
        assert second.optimization.plan.pattern_nodes() == frozenset(
            range(len(second.optimization.pattern)))
        assert sorted(map(sorted, second.execution.rows)) \
            == sorted(map(sorted, first.execution.rows))
        assert len(second.execution) > 0

    def test_a_pattern_computes_its_signature_once(self, monkeypatch):
        from repro.core import pattern as pattern_module

        calls = []
        original = pattern_module.node_signatures

        def counting(pattern):
            calls.append(pattern)
            return original(pattern)

        monkeypatch.setattr(pattern_module, "node_signatures", counting)
        pattern = compile_xpath(REPEATED)
        key = cache_key(pattern, "DPP", {}, 1)
        assert cache_key(pattern, "DPP", {}, 1) == key
        assert canonical_signature(pattern) == key[0]
        assert calls == [pattern]


# -- concurrency stress -----------------------------------------------------


class TestConcurrency:
    def test_parallel_matches_serial_byte_for_byte(self, database):
        batch = ([REPEATED] * 6 + UNIQUE) * 3
        serial = database.query_many(batch, workers=1)
        parallel = database.query_many(batch, workers=4)
        assert [r.execution.tuples for r in serial] == \
            [r.execution.tuples for r in parallel]
        assert [r.execution.schema.node_ids for r in serial] == \
            [r.execution.schema.node_ids for r in parallel]

    def test_figure7_workload_parallel_equals_serial(self, database):
        patterns = [query.pattern
                    for query in PAPER_QUERIES.values()
                    if query.dataset == "pers"] * 4
        serial = database.query_many(patterns, workers=1)
        parallel = database.query_many(patterns, workers=4)
        assert [r.execution.tuples for r in serial] == \
            [r.execution.tuples for r in parallel]

    def test_no_pin_leaks_and_hits_after_stress(self, database):
        batch = ([REPEATED] * 10 + UNIQUE) * 4
        database.query_many(batch, workers=8)
        assert database.pool.pinned_pages() == []
        database.pool.check_invariants()
        assert len(database.pool) <= database.pool.capacity
        stats = database.stats()
        assert stats["queries"] == len(batch)
        assert stats["errors"] == 0
        assert stats["plan_cache"]["hit_rate"] > 0

    def test_holistic_queries_run_concurrently(self, database):
        pattern = compile_xpath(REPEATED)
        reference = database.holistic_query(pattern).canonical()
        results: list = [None] * 8

        def work(index: int) -> None:
            results[index] = database.holistic_query(pattern).canonical()

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == reference for result in results)
        assert database.pool.pinned_pages() == []

    def test_small_pool_under_concurrency(self):
        database = Database.from_document(
            personnel_document(target_nodes=900), buffer_capacity=8)
        batch = ([REPEATED] + UNIQUE) * 4
        serial = database.query_many(batch, workers=1)
        parallel = database.query_many(batch, workers=4)
        assert [r.execution.tuples for r in serial] == \
            [r.execution.tuples for r in parallel]
        assert database.pool.pinned_pages() == []


# -- service observability ---------------------------------------------------


class TestSnapshot:
    def test_latency_percentiles_ordered(self, database):
        database.query_many([REPEATED] * 20 + UNIQUE, workers=2)
        latency = database.stats()["latency"]
        assert 0 < latency["p50_seconds"] <= latency["p95_seconds"]
        assert latency["p95_seconds"] <= latency["p99_seconds"]
        assert latency["p99_seconds"] <= latency["max_seconds"]
        assert latency["samples"] == 24

    def test_engine_counters_aggregate(self, database):
        one = database.query(REPEATED)
        before = database.stats()["engine"]
        database.query_many([REPEATED] * 5, workers=1)
        engine = database.stats()["engine"]
        # output_tuples counts every operator's emissions, so compare
        # against the single-run counter, not the final result size
        assert engine["output_tuples"] - before["output_tuples"] == \
            5 * one.execution.metrics.output_tuples
        assert engine["index_items"] - before["index_items"] == \
            5 * one.execution.metrics.index_items
        assert one.execution.metrics.index_items > 0

    def test_snapshot_includes_storage_and_pool(self, database):
        database.query(REPEATED)
        stats = database.stats()
        assert stats["storage"]["nodes"] == len(database.document)
        assert stats["buffer_pool"]["pinned_pages"] == 0

    def test_percentile_helper(self):
        from repro.obs.registry import percentile

        assert percentile([], 0.5) == 0.0
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.95) == 4.0


# -- metrics isolation (regression) ------------------------------------------


class TestMetricsIsolation:
    def test_execute_does_not_mutate_shared_context(self, database):
        pattern = compile_xpath(REPEATED)
        plan = database.optimize(pattern).plan
        context = EngineContext(database.index, database.document)
        shared_metrics = context.metrics
        executor = Executor(context, pattern)
        result = executor.execute(plan)
        assert context.metrics is shared_metrics
        assert result.metrics is not shared_metrics
        assert shared_metrics.index_items == 0
        assert result.metrics.index_items > 0

    def test_concurrent_executions_have_private_counters(self, database):
        pattern = compile_xpath(REPEATED)
        plan = database.optimize(pattern).plan
        context = EngineContext(database.index, database.document)
        reference = Executor(context, pattern).execute(plan)
        results: list = [None] * 8
        barrier = threading.Barrier(len(results))

        def work(index: int) -> None:
            barrier.wait()
            results[index] = Executor(context, pattern).execute(plan)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for result in results:
            # deterministic work counters must match the serial run
            assert result.metrics.index_items == \
                reference.metrics.index_items
            assert result.metrics.output_tuples == \
                reference.metrics.output_tuples
            assert result.metrics.stack_tuple_ops == \
                reference.metrics.stack_tuple_ops
            assert result.metrics.sort_count == \
                reference.metrics.sort_count
