"""``inproc_twig`` — the paper's own experiment, in process.

One thread, closed loop: the eight Table-1 queries on their three data
sets, ``Database.query(pattern, "DPP")`` on the default (block)
engine, in-memory disk, default 256-page pool (everything fits).  The
engine does ~90 % of the work and the optimizer a few per cent, so an
engine change shows here and an optimizer change must not.  Bypasses:
HTTP, plan cache, WAL, shards, cold storage.
"""

from __future__ import annotations

import random

from perf.bench import Recorder, clock, mean, thread_cpu
from perf.oracle import Oracle

#: the corpora are fixed (the repo's own defaults, seed 42) and folded
#: x2 so a pass over the eight queries takes ~0.35 s; ``--seed`` only
#: draws the order queries are issued in — result sizes swing by 15 %
#: between generator seeds, which would swamp a 10 % bound
DATA_SEED = 42
FOLDING = 2
PROBE_REPEATS = 3


class InprocTwig:
    name = "inproc_twig"
    in_process = True
    root_span = "query"

    def __init__(self, seed: int, speed, scratch) -> None:
        self.rng = random.Random(seed)
        self.speed = speed

    def prepare(self) -> None:
        from repro.document.serialize import serialize
        from repro.workloads import (PAPER_QUERIES, dblp_document,
                                     fold_document, mbench_document,
                                     personnel_document)

        base = {
            "pers": personnel_document(target_nodes=2000, seed=DATA_SEED),
            "dblp": dblp_document(entries=400, seed=DATA_SEED),
            "mbench": mbench_document(target_nodes=3000, seed=DATA_SEED),
        }
        self.xml = {name: serialize(fold_document(document, FOLDING))
                    for name, document in base.items()}
        self.queries = list(PAPER_QUERIES.values())
        oracles = {name: Oracle(text) for name, text in self.xml.items()}
        self.expected = {query.name: oracles[query.dataset].count(
            query.pattern) for query in self.queries}

    def set_up(self) -> None:
        from repro import Database

        self.dbs = {name: Database.from_xml(text, name=name)
                    for name, text in self.xml.items()}
        for query in self.queries:  # statistics warm, postings decoded
            self.dbs[query.dataset].query(query.pattern, "DPP")

    def tear_down(self) -> None:
        self.dbs = {}

    # -- measured loop -----------------------------------------------------

    def run(self, rec: Recorder, seconds: float, tracer=None) -> dict:
        traced = Recorder(self.speed)
        optimize = Recorder(self.speed)
        rows = {"plain": 0, "traced": 0}
        counters = self._io_counters()
        begin = clock()
        deadline = begin + seconds
        passes = 0
        while clock() < deadline:
            order = self.rng.sample(self.queries, len(self.queries))
            if tracer is None or passes % 2 == 0:
                for query in order:
                    self.speed.sample()
                    database = self.dbs[query.dataset]
                    cpu = thread_cpu()
                    start = clock()
                    result = database.query(query.pattern, "DPP")
                    end = clock()
                    self._check(rec, query, start, end, len(result),
                                thread_cpu() - cpu)
                    rows["plain"] += len(result)
            else:
                for query in order:
                    self.speed.sample()
                    rows["traced"] += self._traced_query(
                        query, tracer, traced, optimize)
            passes += 1
        self.speed.sample()
        rec.set_window(begin, clock())
        if tracer is None:
            return {}
        layers = self._layers(rec, traced, optimize, rows, counters,
                              tracer)
        rec.absorb(traced)
        return layers

    def _check(self, rec: Recorder, query, start: float, end: float,
               count: int, cpu: float = 0.0) -> None:
        expected = self.expected[query.name]
        rec.op(query.name, start, end, count == expected,
               f"{count} rows, oracle says {expected}", cpu)

    def _traced_query(self, query, tracer, traced: Recorder,
                      optimize: Recorder) -> int:
        database = self.dbs[query.dataset]
        op = tracer.new_op()
        start = clock()
        with tracer.span("query", op):
            with tracer.span("xpath", op):
                pattern = database.compile(query.pattern)
            with tracer.span("core", op):
                opt_start = clock()
                optimization = database.optimize(pattern, "DPP")
                opt_end = clock()
            with tracer.span("engine", op):
                result = database.execute(optimization.plan, pattern,
                                          spans=True)
        end = clock()
        self._check(traced, query, start, end, len(result))
        optimize.op(query.name, opt_start, opt_end)
        return len(result)

    # -- per-layer metrics -------------------------------------------------

    def _io_counters(self) -> dict[str, int]:
        totals = {"hits": 0, "misses": 0, "evictions": 0, "reads": 0}
        for database in self.dbs.values():
            totals["hits"] += database.pool.stats.hits
            totals["misses"] += database.pool.stats.misses
            totals["evictions"] += database.pool.stats.evictions
            totals["reads"] += database.disk.stats.reads
        return totals

    def _layers(self, rec, traced, optimize, rows, before,
                tracer) -> dict:
        self_ms = tracer.self_ms()
        engine_seconds = sum(self_ms.get("engine", ())) / 1e3
        after = self._io_counters()
        delta = {key: after[key] - before[key] for key in after}
        accesses = delta["hits"] + delta["misses"]
        layers = {
            "optimize_p50_ms": optimize.latency_p50_ms(),
            "rows_per_s": rows["plain"] / rec.elapsed,
            "core.optimize_ms.DPP": mean(self_ms.get("core", ())),
            "engine.execute_block_ms": mean(self_ms.get("engine", ())),
            "engine.rows_per_s_block": (rows["traced"] / engine_seconds
                                        if engine_seconds else 0.0),
            "obs.trace_overhead_ratio": (traced.latency_p50_ms()
                                         / rec.latency_p50_ms()),
            "storage.buffer_hit_rate": (delta["hits"] / accesses
                                        if accesses else 1.0),
            "storage.buffer_evictions": delta["evictions"],
            "storage.page_reads": delta["reads"],
        }
        layers.update(self._exact_counts())
        layers.update(self._probes())
        return layers

    def _exact_counts(self) -> dict:
        """One pass over the eight queries: counts that repeat exactly."""
        plans = cost = stack = sorts = 0
        for query in self.queries:
            result = self.dbs[query.dataset].query(query.pattern, "DPP")
            metrics = result.execution.metrics
            plans += result.optimization.report.plans_considered
            cost += metrics.simulated_cost()
            stack += metrics.stack_tuple_ops
            sorts += metrics.sort_count
        nodes = sum(len(database.document)
                    for database in self.dbs.values())
        compressed = sum(database.index.compressed_bytes()
                         for database in self.dbs.values())
        return {
            "core.plans_considered.DPP": plans,
            "engine.simulated_cost": cost,
            "engine.stack_tuple_ops": stack,
            "engine.sort_count": sorts,
            "storage.compressed_bytes_per_node": compressed / nodes,
        }

    def _probes(self) -> dict:
        """Layer calls the block-engine loop never makes: the tuple
        engine, the streaming driver, a posting scan warm and cold."""
        speed = self.speed
        tuple_ms, first_ms, drain_ms, warm_us, cold_ms = [], [], [], [], []
        stream_rows = 0
        for query in self.queries:
            database = self.dbs[query.dataset]
            plan = database.optimize(query.pattern, "DPP").plan
            tags = [node.tag for node in query.pattern.nodes]
            for _ in range(PROBE_REPEATS):
                speed.sample()
                start = clock()
                database.execute(plan, query.pattern, engine="tuple")
                end = clock()
                speed.sample()
                tuple_ms.append(speed.ms(start, end))
                start = clock()
                stream = database.stream_execute(plan, query.pattern)
                rows = iter(stream)
                first = next(rows, None)
                first_at = clock()
                stream_rows += (first is not None) + sum(1 for _ in rows)
                end = clock()
                speed.sample()
                first_ms.append(speed.ms(start, first_at))
                drain_ms.append(speed.ms(first_at, end))
                start = clock()
                for tag in tags:
                    database.index.scan_blocks(tag)
                end = clock()
                warm_us.append(speed.ms(start, end) * 1e3 / len(tags))
                database.index.drop_caches()
                database.pool.clear()
                start = clock()
                for tag in tags:
                    database.index.scan_blocks(tag)
                end = clock()
                speed.sample()
                cold_ms.append(speed.ms(start, end) / len(tags))
        stream_seconds = (sum(first_ms) + sum(drain_ms)) / 1e3
        return {
            "engine.execute_tuple_ms": mean(tuple_ms),
            "engine.stream_first_row_ms": mean(first_ms),
            "engine.stream_drain_ms": mean(drain_ms),
            "engine.rows_per_s_stream": stream_rows / stream_seconds,
            "storage.scan_blocks_warm_us": mean(warm_us),
            "storage.scan_blocks_cold_ms": mean(cold_ms),
        }

