"""``optimize_heavy`` — Fig. 8's axis: optimizer search cost, alone.

One thread, closed loop: a fixed pool of 64 random patterns of 6-9
nodes over the Pers tags (16 of each size), each optimized by DP
(<= 8 nodes), DPP, DPAP-EB, DPAP-LD and FP through
``Database.optimize`` after ``warm_statistics``; nothing is executed.
``core`` + ``estimation`` do all the work and engine, storage, server,
txn and shards none: the bypass workload for every execution-side
optimisation, and the only place optimizer search cost and plan
quality (``plan_cost_ratio``) are pinned together.
"""

from __future__ import annotations

import random

from perf.bench import Recorder, clock, geomean, mean, thread_cpu

DATA_SEED = 42
#: the pool is fixed: optimize cost swings by 15 % between two random
#: draws of 64 patterns, so ``--seed`` only draws the order of the
#: pattern x algorithm grid
POOL_SEED = 42
SIZES = (6, 7, 8, 9)
PER_SIZE = 16
ALGORITHMS = ("DP", "DPP", "DPAP-EB", "DPAP-LD", "FP")
#: DP enumerates every status; 9 nodes costs seconds, not milliseconds
DP_MAX_NODES = 8


class OptimizeHeavy:
    name = "optimize_heavy"
    in_process = True
    root_span = "optimize"

    def __init__(self, seed: int, speed, scratch) -> None:
        self.rng = random.Random(seed)
        self.speed = speed

    def prepare(self) -> None:
        from repro import Database
        from repro.workloads import personnel_document, random_pattern

        self.document = personnel_document(target_nodes=2000,
                                           seed=DATA_SEED)
        tags = tuple(sorted(self.document.tags()))
        pool_rng = random.Random(POOL_SEED)
        self.patterns = [
            random_pattern(pool_rng, tags=tags, min_nodes=size,
                           max_nodes=size)
            for size in SIZES for _ in range(PER_SIZE)]
        self.grid = [(index, algorithm)
                     for index, pattern in enumerate(self.patterns)
                     for algorithm in ALGORITHMS
                     if algorithm != "DP"
                     or len(pattern) <= DP_MAX_NODES]
        # the reference the measured loop is checked against: every
        # cell's plan cost on a database of its own (optimizers are
        # deterministic, so any other answer later is a failure)
        self.db = Database.from_document(self.document)
        reference = {cell: self._optimize(cell) for cell in self.grid}
        self.costs = {cell: result.estimated_cost
                      for cell, result in reference.items()}
        #: costed alternatives of one pass over the grid, per algorithm
        self.plans_considered = {
            algorithm: sum(result.report.plans_considered
                           for cell, result in reference.items()
                           if cell[1] == algorithm)
            for algorithm in ALGORITHMS}

    def set_up(self) -> None:
        from repro import Database

        self.db = Database.from_document(self.document)
        start = clock()
        for pattern in self.patterns:
            self.db.warm_statistics(pattern)
        self.warm_statistics = (start, clock())
        for index in range(len(self.patterns)):
            self._optimize((index, "FP"))

    def tear_down(self) -> None:
        self.db = None

    def _optimize(self, cell):
        index, algorithm = cell
        return self.db.optimize(self.patterns[index], algorithm)

    def run(self, rec: Recorder, seconds: float, tracer=None) -> dict:
        """Passes over the whole grid, each in a seeded order, until
        the time is up (the last pass stops where it is: throughput
        counts every kind of cell at its median, so a few cells
        sampled once more than the rest do not move it)."""
        begin = clock()
        deadline = begin + seconds
        while clock() < deadline:
            for cell in self.rng.sample(self.grid, len(self.grid)):
                if clock() >= deadline:
                    break
                self.speed.sample_if_older(0.02)
                op = tracer.new_op() if tracer else 0
                cpu = thread_cpu()
                start = clock()
                result = self._optimize(cell)
                end = clock()
                cpu = thread_cpu() - cpu
                # optimizers are deterministic: the same cell must
                # price its plan the same on every call
                rec.op(f"{cell[1]}/{cell[0]}", start, end,
                       result.estimated_cost == self.costs[cell],
                       f"cost {result.estimated_cost} != "
                       f"{self.costs[cell]}", cpu)
                if tracer:
                    root = tracer.add("optimize", start, end, op)
                    # the algorithm's own clock: the search, without
                    # optimizer construction and plan validation
                    search = result.report.optimization_seconds
                    tracer.add(f"core.{cell[1]}", end - search, end, op,
                               root)
        self.speed.sample()
        rec.set_window(begin, clock())
        if tracer is None:
            return {}
        self_ms = tracer.self_ms()
        layers = {
            "optimize_p50_ms": rec.latency_p50_ms(),
            "plan_cost_ratio": self._plan_cost_ratio(),
            "estimation.warm_statistics_ms": self.speed.ms(
                *self.warm_statistics),
        }
        for algorithm in ALGORITHMS:
            layers[f"core.optimize_ms.{algorithm}"] = mean(
                self_ms[f"core.{algorithm}"])
            layers[f"core.plans_considered.{algorithm}"] = (
                self.plans_considered[algorithm])
        return layers

    def _plan_cost_ratio(self) -> float:
        """Geomean, over patterns DP can afford and all five
        algorithms, of chosen-plan estimated cost / DP's (the optimum):
        a faster optimizer that picks worse plans moves it."""
        return geomean([self.costs[(index, algorithm)]
                        / self.costs[(index, "DP")]
                        for index, algorithm in self.grid
                        if (index, "DP") in self.costs])
