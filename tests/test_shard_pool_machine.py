"""The shard pool's protocol, searched: queries, streams, cancels,
pings, crashes and closes in any order, on a real 2-worker fleet.

Whatever the order:

* every answer is the single node's rows, in the single node's order
  (a stream's rows are a prefix of them until it is read to its end);
* every run that reached the workers is booked once in
  ``stats()["shards"]["totals"]``: never more often than runs were
  scattered, never less often than the runs that have ended, and
  exactly as often once a query or a ping has been answered after
  them;
* every step returns within ``_within``'s bound — also a stream
  dropped and then finished by the cyclic collector inside a reader of
  the totals (``stats()`` or ``collect_gauges()``), which hold their
  mutex;
* a failure is a typed ``ShardError``, and the next fleet answers;
* no worker process outlives ``close``.
"""

from __future__ import annotations

import gc
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

from repro.api import Database
from repro.errors import QueryCancelled, ShardError
from repro.obs.registry import MetricsRegistry
from repro.shard import ShardedDatabase
from repro.workloads.personnel import personnel_document

from tests.test_shard import _within

QUERIES = ("//manager//employee/name", "//department/name",
           "//manager[.//employee/name]//department/name",
           "//nosuchtag")
#: seconds any one step may take
BOUND = 20.0


class Held:
    """A stream the machine keeps, and the rows read from it."""

    def __init__(self, fleet: ShardedDatabase, plans: dict, query: str,
                 first: int | None) -> None:
        plan, pattern, self.expected = plans[query]
        self.flag = False
        self.stream = fleet.stream_execute(
            plan, pattern, cancel=lambda: self.flag)
        self.first = first
        self.rows: list[tuple] = []
        self.pulled = False

    def read(self, blocks: int | None) -> bool:
        """Read up to *blocks* more blocks (``None``: to the end);
        true when this read was the stream's first pull."""
        started = not self.pulled and not self.stream.finished
        self.pulled = self.pulled or (blocks != 0)
        source = self.stream.blocks(self.first)
        for _ in iter(int, 1) if blocks is None else range(blocks):
            block = next(source, None)
            if block is None:
                break
            self.rows.extend(block)
        assert self.rows == self.expected[:len(self.rows)]
        if self.stream.exhausted:
            assert self.rows == self.expected
        return started and self.pulled


class CollectingTotals(list):
    """Per-shard totals whose every read runs the cyclic collector."""

    def __iter__(self):
        gc.collect()
        return super().__iter__()


class ShardPoolMachine(RuleBasedStateMachine):
    """One fleet, shared across examples until a step closes it; the
    test sets ``document`` and ``plans``."""

    document = None
    plans: dict = {}
    fleet: "ShardedDatabase | None" = None

    def __init__(self) -> None:
        super().__init__()
        if ShardPoolMachine.fleet is None:
            ShardPoolMachine.fleet = ShardedDatabase(self.document,
                                                     shards=2)
        self.held: list[Held] = []
        self._baseline()

    def _step(self, step) -> None:
        """Run *step* under ``_within``'s bound; a fleet that misses it
        may be wedged for good, so the next example starts a new one."""
        try:
            _within(BOUND, step)
        except BaseException:
            ShardPoolMachine.fleet = None
            raise

    def _baseline(self) -> None:
        #: runs scattered since the baseline, and the totals then
        self.scattered = 0
        self.base = self._queries()

    def _queries(self) -> list[int]:
        return [entry["queries"]
                for entry in self.fleet.stats()["shards"]["totals"]]

    def _booked(self, exact: bool) -> None:
        unsettled = sum(held.pulled and not held.stream.finished
                        for held in self.held)
        low = self.scattered if exact else self.scattered - unsettled
        for now, then in zip(self._queries(), self.base):
            assert low <= now - then <= self.scattered, (
                now - then, self.scattered, unsettled)

    def _reopen(self) -> None:
        """Close the fleet with its held streams; none of its workers
        may outlive it; then a new fleet takes its place and answers."""
        fleet = self.fleet

        def close() -> None:
            for held in self.held:
                held.stream.close()
            fleet.close()

        self._step(close)
        assert fleet.workers.closed and not any(fleet.workers.alive())
        self.held.clear()
        ShardPoolMachine.fleet = ShardedDatabase(self.document, shards=2)
        self._baseline()
        self.execute(QUERIES[0])

    def teardown(self) -> None:
        held, self.held = self.held, []
        self._step(lambda: [entry.stream.close() for entry in held])

    @rule(query=st.sampled_from(QUERIES))
    def execute(self, query: str) -> None:
        plan, pattern, expected = self.plans[query]
        self._step(lambda: self._assert_rows(
            self.fleet.execute(plan, pattern).rows, expected))
        self.scattered += 1
        self._booked(exact=True)

    @staticmethod
    def _assert_rows(rows, expected) -> None:
        assert list(rows) == expected

    @rule(query=st.sampled_from(QUERIES),
          first=st.sampled_from((1, 3, None)),
          blocks=st.sampled_from((0, 1, None)))
    def stream(self, query: str, first: int | None,
               blocks: int | None) -> None:
        held = Held(self.fleet, self.plans, query, first)
        self.held.append(held)
        self._read(held, blocks)

    def _read(self, held: Held, blocks: int | None) -> None:
        pulled = []
        self._step(lambda: pulled.append(held.read(blocks)))
        self.scattered += pulled[0]

    @precondition(lambda self: self.held)
    @rule(index=st.integers(0, 7), blocks=st.sampled_from((1, None)))
    def read(self, index: int, blocks: int | None) -> None:
        self._read(self.held[index % len(self.held)], blocks)

    @precondition(lambda self: self.held)
    @rule(index=st.integers(0, 7))
    def close_stream(self, index: int) -> None:
        stream = self.held[index % len(self.held)].stream
        self._step(stream.close)

    @precondition(lambda self: self.held)
    @rule(index=st.integers(0, 7))
    def cancel(self, index: int) -> None:
        """Its predicate turns true: the next pull raises, unless the
        stream has ended already."""
        held = self.held[index % len(self.held)]
        held.flag = True
        finished = held.stream.finished
        raised = []

        def pull() -> None:
            try:
                held.read(1)
            except QueryCancelled:
                raised.append(True)

        self.scattered += not held.pulled and not finished
        self._step(pull)
        assert bool(raised) == (not finished)
        assert held.stream.finished

    @rule(reader=st.sampled_from(("stats", "collect_gauges")),
          index=st.integers(0, 7))
    def drop_in_reader(self, reader: str, index: int) -> None:
        """A stream dropped without ``close()`` — a held one, or a new
        one read for a block — is collected inside a reader of the
        totals, whose mutex is held: its finish hook runs there."""
        fleet = self.fleet
        if not self.held:
            self.stream(QUERIES[index % len(QUERIES)], 1, 1)
        read = {"stats": fleet.stats,
                "collect_gauges": lambda: fleet.collect_gauges(
                    MetricsRegistry())}[reader]
        totals = fleet._shard_totals
        gc.disable()  # the collection must come inside the reader
        try:
            dropped = weakref.ref(self.held.pop(index % len(self.held)))
            assert dropped() is not None
            fleet._shard_totals = CollectingTotals(totals)
            self._step(read)
            assert dropped() is None
        finally:
            fleet._shard_totals = totals
            gc.enable()

    @rule()
    def ping(self) -> None:
        self._step(lambda: self._assert_rows(
            self.fleet.workers.ping(), [0, 1]))
        self._booked(exact=True)

    @rule(crash=st.sampled_from((None, 0, 1)),
          query=st.sampled_from(QUERIES))
    def close_and_reopen(self, crash: int | None, query: str) -> None:
        """Close the fleet — or crash a worker, when the next query is
        a ``ShardError`` and the pool is torn down — then reopen."""
        if crash is not None:
            plan, pattern, _ = self.plans[query]
            raised = []

            def crash_then_query() -> None:
                self.fleet.workers.crash_worker(crash)
                try:
                    self.fleet.execute(plan, pattern)
                except ShardError:
                    raised.append(True)

            self._step(crash_then_query)
            assert raised and self.fleet.workers.closed
        self._reopen()

    @invariant()
    def each_run_booked_once(self) -> None:
        self._booked(exact=False)


@pytest.fixture(scope="module")
def document():
    return personnel_document(target_nodes=300, seed=7)


def test_shard_pool_protocol(document, monkeypatch):
    single = Database.from_document(document)
    plans = {}
    for query in QUERIES:
        pattern = single.compile(query)
        plan = single.optimize(pattern).plan
        plans[query] = (plan, pattern,
                        list(single.execute(plan, pattern).rows))
    monkeypatch.setattr(ShardPoolMachine, "document", document)
    monkeypatch.setattr(ShardPoolMachine, "plans", plans)
    try:
        # a failing pool may be wedged for good: shrinking would only
        # wait out the bound again at every step
        run_state_machine_as_test(ShardPoolMachine, settings=settings(
            max_examples=6, stateful_step_count=10, deadline=None,
            phases=(Phase.explicit, Phase.reuse, Phase.generate),
            suppress_health_check=[HealthCheck.too_slow]))
    finally:
        if ShardPoolMachine.fleet is not None:
            ShardPoolMachine.fleet.close()
            ShardPoolMachine.fleet = None
