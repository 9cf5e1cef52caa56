"""``shard_gather`` — the coordination tax, measured.

In-process coordinator: a ``ShardedDatabase(shards=2)`` fleet and a
single-node ``Database`` over the same Pers 2000 x2 document.  Per
pass the same pre-optimized plan for ``Q.Pers.1.a/2.c/3.d/4.d`` runs
three ways: single-node ``execute``, sharded ``execute``, and sharded
``stream_execute`` to its first row.  ROADMAP: "the coordination tax
itself is the measurable quantity" — pickling, gather and merge in
``shard`` dominate; server, optimizer and WAL do nothing.
"""

from __future__ import annotations

import random

from perf.bench import Recorder, clock, mean, thread_cpu
from perf.oracle import Oracle

DATA_SEED = 42
FOLDING = 2
SHARDS = 2
QUERIES = ("Q.Pers.1.a", "Q.Pers.2.c", "Q.Pers.3.d", "Q.Pers.4.d")
MODES = ("single", "sharded", "stream")


class ShardGather:
    name = "shard_gather"
    in_process = True
    root_span = "sharded"

    def __init__(self, seed: int, speed, scratch) -> None:
        self.rng = random.Random(seed)
        self.speed = speed
        self.scratch = scratch
        self.sharded = None
        self.generation = 0

    def prepare(self) -> None:
        from repro.document.serialize import serialize
        from repro.workloads import (PAPER_QUERIES, fold_document,
                                     personnel_document)

        self.xml = serialize(fold_document(
            personnel_document(target_nodes=2000, seed=DATA_SEED),
            FOLDING))
        self.queries = [PAPER_QUERIES[name] for name in QUERIES]
        oracle = Oracle(self.xml)
        self.expected = {query.name: oracle.count(query.pattern)
                         for query in self.queries}

    def set_up(self) -> None:
        from repro import Database
        from repro.document.parser import parse_xml
        from repro.shard import ShardedDatabase

        document = parse_xml(self.xml, name="pers-x2")
        self.single = Database.from_document(document)
        self.generation += 1
        start = clock()
        self.sharded = ShardedDatabase(
            document, shards=SHARDS,
            base_dir=self.scratch / f"fleet-{self.generation}")
        self.fleet_start = (start, clock())
        self.plans = {query.name: self.sharded.optimize(
            query.pattern, "DPP").plan for query in self.queries}
        for query in self.queries:
            for mode in MODES:
                self._execute(mode, query)

    def tear_down(self) -> None:
        if self.sharded is not None:
            self.sharded.close()
            self.sharded = None

    def _execute(self, mode: str, query, spans: bool = False):
        """(rows checked against the oracle, wall and thread-CPU clock
        at the end of the timed part, the result when there is one to
        read spans from)"""
        plan, pattern = self.plans[query.name], query.pattern
        if mode == "single":
            result = self.single.execute(plan, pattern, spans=spans)
            return len(result), clock(), thread_cpu(), result
        if mode == "sharded":
            result = self.sharded.execute(plan, pattern, spans=spans)
            return len(result), clock(), thread_cpu(), result
        stream = self.sharded.stream_execute(plan, pattern, spans=spans)
        rows = iter(stream)
        first = next(rows, None)
        ended = clock(), thread_cpu()  # the first row ends the operation
        count = (first is not None) + sum(1 for _ in rows)
        return count, *ended, None  # the drain only feeds the check

    def run(self, rec: Recorder, seconds: float, tracer=None) -> dict:
        traced = Recorder(self.speed)
        phases = {"scatter": [], "gather": [], "merge": [],
                  "worker_max": []}
        rows = 0
        begin = clock()
        deadline = begin + seconds
        passes = 0
        while clock() < deadline:
            tracing = tracer is not None and passes % 2 == 1
            for query in self.rng.sample(self.queries, len(self.queries)):
                for mode in MODES:
                    self.speed.sample()
                    cpu = thread_cpu()
                    start = clock()
                    count, end, end_cpu, result = self._execute(
                        mode, query, spans=tracing)
                    expected = self.expected[query.name]
                    (traced if tracing else rec).op(
                        f"{mode} {query.name}", start, end,
                        count == expected,
                        f"{count} rows, oracle says {expected}",
                        end_cpu - cpu)
                    rows += 0 if tracing else count
                    if tracing and mode == "sharded":
                        self._record_phases(tracer, result.span, start,
                                            end, phases)
            passes += 1
        self.speed.sample()
        rec.set_window(begin, clock())
        if tracer is None:
            return {}
        layers = {
            "shard_tax_ratio": (rec.latency_p50_ms("sharded")
                                / rec.latency_p50_ms("single")),
            "ttfr_p50_ms": rec.latency_p50_ms("stream"),
            "rows_per_s": rows / rec.elapsed,
            "obs.trace_overhead_ratio": (traced.latency_p50_ms()
                                         / rec.latency_p50_ms()),
            "shard.fleet_start_s": self.speed.ms(*self.fleet_start) / 1e3,
        }
        for phase, values in phases.items():
            layers[f"shard.{phase}_ms"] = mean(values)
        rec.absorb(traced)
        return layers

    def _record_phases(self, tracer, span, start: float, end: float,
                       phases: dict) -> None:
        """The program's own stitched span of one sharded execute
        (``spans=True``), re-recorded under the benchmark's span for
        the call; the slowest worker sets the gather time, so the
        maximum over workers is kept, not the mean."""
        scale = self.speed.factor(start, end) * 1e3
        op = tracer.new_op()
        root = tracer.add("sharded", start, end, op)
        cursor = start
        for child in span.children:
            phase = {"ShardScatter": "scatter", "ShardGather": "gather",
                     "ShardMerge": "merge"}[child.name]
            phases[phase].append(child.seconds * scale)
            tracer.add(f"shard.{phase}", cursor, cursor + child.seconds,
                       op, root)
            cursor += child.seconds
            if phase == "gather":
                phases["worker_max"].append(
                    max(worker.seconds for worker in child.children)
                    * scale)
