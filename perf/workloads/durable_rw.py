"""``durable_rw`` — writes beside reads on a working set larger than the pool.

One thread, file-backed (``create_database`` in the benchmark's scratch
directory, Pers 5000, ``buffer_capacity=16`` against the 34+ pages
stored, fsync on every commit): cycles of one write transaction (a
seeded ``insert_subtree`` of a 4-node employee fragment; every 5th a
``delete_subtree`` of the oldest fragment) then four reads
(``Q.Pers.1.a``, ``Q.Pers.2.c`` twice each through ``Database.query``),
a checkpoint every 25 commits.  Each window ends with 20 un-checkpointed
commits, ``close``, ``open_database`` (timed recovery) and a re-check
of the reads on the recovered database.  Every commit bumps the
statistics epoch and drops decoded blocks, so read cost, write cost
and space are reported together; the only workload where ``txn`` and
cold ``storage`` do most of the work.  Bypasses: HTTP, plan cache,
shards.
"""

from __future__ import annotations

import os
import random
import xml.etree.ElementTree as ElementTree

from perf.bench import Recorder, clock, mean, thread_cpu
from perf.oracle import Oracle

DATA_SEED = 42
NODES = 5000
POOL_PAGES = 16
READS = ("Q.Pers.1.a", "Q.Pers.2.c")
DELETE_EVERY = 5
CHECKPOINT_EVERY = 25
TAIL_COMMITS = 20
STAGES = ("validate", "cow", "wal", "fsync", "publish")


class DurableRw:
    name = "durable_rw"
    in_process = True
    root_span = "op"

    def __init__(self, seed: int, speed, scratch) -> None:
        self.rng = random.Random(seed)
        self.speed = speed
        self.scratch = scratch
        self.db = None
        self.generation = 0

    def prepare(self) -> None:
        from repro.document.serialize import serialize
        from repro.workloads import PAPER_QUERIES, personnel_document

        self.xml = serialize(personnel_document(target_nodes=NODES,
                                                seed=DATA_SEED))
        self.queries = [PAPER_QUERIES[name] for name in READS]

    def _fresh_mirror(self) -> None:
        """The oracle's copy of the document, as a new database holds
        it; it takes every mutation the database takes, so reads stay
        checkable after each commit."""
        self.mirror = Oracle(self.xml)
        self.managers = [element for element in self.mirror.root.iter()
                         if element.tag == "manager"]
        self.parent_of = {child: parent
                          for parent in self.mirror.root.iter()
                          for child in parent}
        self.live: list = []  # inserted fragments' elements, oldest first
        self.serial = 0

    def set_up(self) -> None:
        from repro.txn import create_database

        self.generation += 1
        self.path = self.scratch / f"db-{self.generation}"
        self.db = create_database(self.path, xml=self.xml,
                                  buffer_capacity=POOL_PAGES)
        for query in self.queries:
            self.db.query(query.pattern, "DPP")

    def tear_down(self) -> None:
        if self.db is not None:
            self.db.transactions.close()
            self.db.disk.close()
            self.db = None

    # -- one cycle ---------------------------------------------------------

    def _next_write(self):
        """Draw the next mutation and apply it to the oracle's mirror;
        returns the transaction body and the user bytes it inserts."""
        from repro.document.parser import parse_xml

        rng = self.rng
        self.serial += 1
        if self.serial % DELETE_EVERY == 0 and self.live:
            element = self.live.pop(0)
            self.parent_of.pop(element).remove(element)
            victim = self._node_id(element.get("id"))
            return (lambda txn: txn.delete_subtree(victim)), 0
        marker = f"w{self.serial}"
        manager = rng.choice(self.managers)
        fragment = (f'<employee id="{marker}">'
                    f"<name>Perf {rng.randrange(10 ** 6)}</name>"
                    f"<phone>+1-555-{rng.randrange(10 ** 4):04d}</phone>"
                    f"<email>{marker}@example.com</email></employee>")
        element = ElementTree.fromstring(fragment)
        manager.append(element)
        self.parent_of[element] = manager
        self.live.append(element)
        parent_id = self._node_id(manager.get("id"))
        subtree = parse_xml(fragment)
        return ((lambda txn: txn.insert_subtree(parent_id, subtree)),
                len(fragment.encode()))

    def _node_id(self, marker: str) -> int:
        """Labels move when a commit relabels; ``id`` attributes stay."""
        return next(node.node_id for node in self.db.document
                    if node.attributes.get("id") == marker)

    def _commit(self, rec: Recorder, mutate, tracer) -> None:
        metrics = self.db.transactions.metrics
        before = metrics.snapshot() if tracer else None
        cpu = thread_cpu()
        start = clock()
        with self.db.transaction() as txn:
            mutate(txn)
        end = clock()
        rec.op("commit", start, end, cpu=thread_cpu() - cpu)
        if tracer:
            # the program's own stage clocks for this commit, laid end
            # to end under the benchmark's span; what they leave is
            # Transaction set-up (begin copies the node table)
            after = metrics.snapshot()
            op = tracer.new_op()
            root = tracer.add("op", start, end, op)
            cursor = end - (after["commit_seconds"]
                            - before["commit_seconds"])
            for stage in ("validate", "cow", "wal", "publish"):
                seconds = (after[f"{stage}_seconds"]
                           - before[f"{stage}_seconds"])
                tracer.add(f"txn.{stage}", cursor, cursor + seconds, op,
                           root)
                cursor += seconds

    def _reads(self, rec: Recorder, database, tracer=None) -> None:
        expected = {query.name: self.mirror.count(query.pattern)
                    for query in self.queries}
        for query in self.queries * 2:
            self.speed.sample()
            cpu = thread_cpu()
            start = clock()
            if tracer:
                op = tracer.new_op()
                with tracer.span("op", op):
                    with tracer.span("core", op):
                        plan = database.optimize(query.pattern, "DPP").plan
                    with tracer.span("engine+storage", op):
                        result = database.execute(plan, query.pattern)
            else:
                result = database.query(query.pattern, "DPP")
            end = clock()
            rec.op(query.name, start, end,
                   len(result) == expected[query.name],
                   f"{len(result)} rows, oracle says "
                   f"{expected[query.name]}", thread_cpu() - cpu)

    def run(self, rec: Recorder, seconds: float, tracer=None) -> dict:
        self._fresh_mirror()
        db = self.db
        metrics_before = db.transactions.metrics.snapshot()
        pool_before = (db.pool.stats.hits, db.pool.stats.misses,
                       db.pool.stats.evictions, db.disk.stats.reads)
        user_bytes = commits = 0
        checkpoints = []
        begin = clock()
        deadline = begin + seconds
        tail = 0
        # the tail of un-checkpointed commits is part of the run: the
        # loop keeps cycling until the time is up *and* the log holds
        # TAIL_COMMITS commits for recovery to replay
        while clock() < deadline or tail < TAIL_COMMITS:
            mutate, inserted = self._next_write()
            self.speed.sample()
            self._commit(rec, mutate, tracer)
            user_bytes += inserted
            commits += 1
            tail += 1
            self._reads(rec, db, tracer)
            if commits % CHECKPOINT_EVERY == 0 and clock() < deadline:
                self.speed.sample()
                start = clock()
                db.checkpoint()
                checkpoints.append(self.speed.ms(start, clock()))
                tail = 0
        self.speed.sample()
        rec.set_window(begin, clock())
        after = db.transactions.metrics.snapshot()
        pool_after = (db.pool.stats.hits, db.pool.stats.misses,
                      db.pool.stats.evictions, db.disk.stats.reads)
        # restart: close, recover the log's tail, check the reads again
        self.tear_down()
        self.speed.sample()
        start = clock()
        from repro.txn import open_database

        self.db = open_database(self.path, buffer_capacity=POOL_PAGES)
        recovery = (start, clock())
        recovered = Recorder(self.speed)
        self._reads(recovered, self.db)
        self.speed.sample()
        recovered.failures = [f"after recovery, {failure}"
                              for failure in recovered.failures]
        rec.absorb(recovered)
        replayed = self.db.transactions.last_recovery
        if len(replayed.committed) != tail or not replayed.clean:
            rec.attempted += 1
            rec.failures.append(
                f"recovery replayed {len(replayed.committed)} commits "
                f"(clean={replayed.clean}), the log held {tail}")
        if tracer is None:
            return {}
        delta = {key: after[key] - metrics_before[key] for key in after}
        hits, misses, evictions, reads = (
            b - a for a, b in zip(pool_before, pool_after))
        self.db.checkpoint()
        stored = sum(os.path.getsize(self.path / name)
                     for name in ("pages.db", "wal.log"))
        layers = {
            "commit_p50_ms": rec.latency_p50_ms("commit"),
            "recovery_s": self.speed.ms(*recovery) / 1e3,
            "wal_bytes_per_user_byte": delta["wal_bytes"] / user_bytes,
            "stored_bytes_per_node": stored / len(self.db.document),
            "txn.pages_logged_per_commit": delta["pages_logged"] / commits,
            "txn.checkpoint_ms": mean(checkpoints),
            "txn.recovery_records": replayed.replayed_pages,
            "storage.buffer_hit_rate": hits / (hits + misses),
            "storage.buffer_evictions": evictions,
            "storage.page_reads": reads,
            "storage.compressed_bytes_per_node": (
                self.db.index.compressed_bytes() / len(self.db.document)),
        }
        # per-commit stage means from the program's own counters,
        # scaled like every other time
        for stage in STAGES:
            layers[f"txn.{stage}_ms"] = (
                delta[f"{stage}_seconds"] / commits * rec.scale * 1e3)
        layers.update(self._cold_scan())
        return layers

    def _cold_scan(self) -> dict:
        """A posting scan of every tag the reads touch, decoded blocks
        and pool dropped first, then again warm."""
        database = self.db
        tags = sorted({node.tag for query in self.queries
                       for node in query.pattern.nodes})
        cold_ms, warm_us = [], []
        for _ in range(5):
            database.index.drop_caches()
            database.pool.clear()
            self.speed.sample()
            start = clock()
            for tag in tags:
                database.index.scan_blocks(tag)
            middle = clock()
            for tag in tags:
                database.index.scan_blocks(tag)
            end = clock()
            self.speed.sample()
            cold_ms.append(self.speed.ms(start, middle) / len(tags))
            warm_us.append(self.speed.ms(middle, end) * 1e3 / len(tags))
        return {"storage.scan_blocks_cold_ms": mean(cold_ms),
                "storage.scan_blocks_warm_us": mean(warm_us)}
