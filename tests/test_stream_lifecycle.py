"""The stream life cycle, searched: reads, closes and cancels in any
order, on a single node and on a 2-shard fleet.

A stream (:meth:`~repro.target.QueryTarget.stream_execute`) is read by
``blocks()``, by iterating it, by ``fetchall()`` or ``drain()``, in any
mix, and ends read to its end, cancelled (its predicate flips) or
closed early.  Whatever the order:

* the finish step (``QueryTarget._finish_run``) runs exactly once per
  stream, and only once the stream has finished;
* ``exhausted`` is true iff the stream was read to its end — and then
  every row of the plan was handed out exactly once;
* each finished traced stream leaves one trace on the tracer;
* the attached query log holds a record iff the stream is exhausted.

The model is what the readers saw: the rows handed to them, and how
the stream ended (a reader met its end, a read raised
``QueryCancelled``, or ``close()`` came first).
"""

from __future__ import annotations

from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings
from hypothesis.stateful import (Bundle, RuleBasedStateMachine,
                                 invariant, rule,
                                 run_state_machine_as_test)

from repro.api import Database
from repro.engine import blocks as engine_blocks
from repro.errors import QueryCancelled
from repro.obs.querylog import QueryLog
from repro.shard import ShardedDatabase
from repro.workloads.personnel import personnel_document

QUERIES = ("//manager//employee/name", "//department/name",
           "//manager[.//employee/name]//department/name",
           "//nosuchtag")
#: small blocks, so a 300-node document's results span several
BLOCK_ROWS = 4


@pytest.fixture(scope="module")
def targets():
    document = personnel_document(target_nodes=300, seed=7)
    with ShardedDatabase(document, shards=2) as fleet:
        yield {"single": Database.from_document(document),
               "fleet": fleet}


class Run:
    """One stream and what its readers have seen of it."""

    def __init__(self, target, plan, pattern, expected: list,
                 cancellable: bool, traced: bool) -> None:
        self.target = target
        self.expected = expected
        self.flag = False
        self.traced = traced
        self.stream = target.stream_execute(
            plan, pattern, spans=traced,
            cancel=(lambda: self.flag) if cancellable else None)
        self.delivered: list[tuple] = []
        self.drained = False
        #: None while open, then "exhausted", "cancelled" or "closed"
        self.ended: str | None = None

    def read(self, reader) -> None:
        """Run one read; record the rows it returned and whether it met
        the end of the stream (*reader* returns ``(rows, at_end)``)."""
        try:
            rows, at_end = reader(self.stream)
        except QueryCancelled:
            assert self.flag and self.ended is None
            self.ended = "cancelled"
            return
        if self.ended is not None:
            assert not rows, "a finished stream handed out rows"
        self.delivered.extend(tuple(row) for row in rows)
        if at_end and self.ended is None:
            self.ended = "exhausted"


def next_block(stream):
    block = next(stream.blocks(), None)
    return (block or [], block is None)


def next_row(stream):
    row = next(iter(stream), None)
    if row is None:
        return [], True
    return [tuple(region.start for region in row)], False


def fetchall(stream):
    return list(stream.fetchall()), True


def drain(stream):
    assert stream.drain() == stream.produced
    return [], True


class StreamLifecycle(RuleBasedStateMachine):
    """Streams of both back ends under random reads, closes and
    cancels; ``targets`` and ``finishes`` are set by the test."""

    targets: dict = {}
    plans: dict = {}
    #: stream -> how often the finish step ran for it
    finishes: Counter = Counter()

    runs = Bundle("runs")

    def __init__(self) -> None:
        super().__init__()
        self.finishes.clear()
        self.log = QueryLog(None)
        self.traces_before = {}
        self.started: list[Run] = []
        for name, target in self.targets.items():
            target.attach_query_log(self.log)
            self.traces_before[name] = target.tracer.recorded

    def teardown(self) -> None:
        for run in self.started:
            run.stream.close()
        for target in self.targets.values():
            target.attach_query_log(None)

    @rule(target=runs, backend=st.sampled_from(["single", "fleet"]),
          query=st.sampled_from(QUERIES), cancellable=st.booleans(),
          traced=st.booleans())
    def start(self, backend: str, query: str, cancellable: bool,
              traced: bool) -> Run:
        plan, pattern, expected = self.plans[backend, query]
        run = Run(self.targets[backend], plan, pattern, expected,
                  cancellable, traced)
        self.started.append(run)
        return run

    @rule(run=runs)
    def blocks(self, run: Run) -> None:
        run.read(next_block)

    @rule(run=runs)
    def iterate(self, run: Run) -> None:
        run.read(next_row)

    @rule(run=runs)
    def fetchall(self, run: Run) -> None:
        run.read(fetchall)

    @rule(run=runs)
    def drain(self, run: Run) -> None:
        if run.ended is None:
            run.drained = True
        run.read(drain)

    @rule(run=runs)
    def close(self, run: Run) -> None:
        run.stream.close()
        if run.ended is None:
            run.ended = "closed"

    @rule(run=runs)
    def cancel(self, run: Run) -> None:
        run.flag = True

    @invariant()
    def each_stream_finished_once_as_it_ended(self) -> None:
        for run in self.started:
            stream = run.stream
            assert stream.finished == (run.ended is not None)
            assert self.finishes[stream] == int(stream.finished)
            assert stream.exhausted == (run.ended == "exhausted")
            assert stream.cancelled == (run.ended == "cancelled")
            if run.ended == "exhausted":
                assert stream.produced == len(run.expected)
                if not run.drained:
                    assert Counter(run.delivered) == Counter(
                        run.expected)
            # a fetchall that the cancel interrupts has counted the row
            # reader's open block, which the exception then drops
            if not run.drained and run.ended != "cancelled":
                assert stream.produced == len(run.delivered)

    @invariant()
    def a_trace_per_traced_stream_a_record_per_exhausted_one(
            self) -> None:
        for name, target in self.targets.items():
            traced = sum(run.traced and run.stream.finished
                         for run in self.started
                         if run.target is target)
            assert target.tracer.recorded \
                == self.traces_before[name] + traced
        assert len(self.log.records()) == sum(
            run.stream.exhausted for run in self.started)


@pytest.fixture(params=["single", "fleet"])
def target(request, targets, monkeypatch):
    monkeypatch.setattr(engine_blocks, "BLOCK_ROWS", BLOCK_ROWS)
    return targets[request.param]


def open_stream(target, cancel=None):
    pattern = target.compile(QUERIES[0])
    plan = target.optimize(pattern).plan
    expected = list(target.execute(plan, pattern).rows)
    return target.stream_execute(plan, pattern, cancel=cancel), expected


# -- the examples the machine shrank to, at the parent ---------------------


def test_a_stream_closed_unread_stays_closed(target):
    """close, then read: at the parent the read started the pull loop
    afresh on the finished stream, which then raised ``QueryCancelled``
    (predicate set) or turned ``exhausted`` — after its finish step had
    logged nothing."""
    for cancel in (None, lambda: True):
        stream, _ = open_stream(target, cancel)
        stream.close()
        assert next(stream.blocks(), None) is None
        assert stream.fetchall() == [] and stream.drain() == 0
        assert not stream.exhausted and not stream.cancelled


def test_a_closed_stream_hands_out_nothing_more(target):
    """blocks, iter, close, then fetchall or drain: at the parent they
    handed out (or counted) the rest of the by-row reader's block."""
    for fetch in (True, False):
        stream, _ = open_stream(target)
        next(stream.blocks())
        next(iter(stream))
        stream.close()
        if fetch:
            assert stream.fetchall() == []
        else:
            assert stream.drain() == 2
        assert stream.produced == 2 and not stream.exhausted


def test_blocks_after_a_row_reader_start_with_its_block(target):
    """blocks, iter, blocks, drain: at the parent the second ``blocks``
    skipped the rest of the block the row reader was inside, and the
    stream ended exhausted three rows short."""
    stream, expected = open_stream(target)
    first = next(stream.blocks())
    row = tuple(region.start for region in next(iter(stream)))
    rest = next(stream.blocks())
    assert [*first, row, *rest] == expected[:len(first) + 1 + len(rest)]
    assert len(rest) == BLOCK_ROWS - 1
    stream.drain()
    assert stream.exhausted and stream.produced == len(expected)


def test_stream_life_cycle_on_both_back_ends(targets, monkeypatch):
    monkeypatch.setattr(engine_blocks, "BLOCK_ROWS", BLOCK_ROWS)
    plans = {}
    for name, target in targets.items():
        for query in QUERIES:
            pattern = target.compile(query)
            plan = target.optimize(pattern).plan
            plans[name, query] = (plan, pattern,
                                  list(target.execute(plan, pattern).rows))
    finishes = Counter()
    for target in targets.values():
        def counting(stream, *args, _finish=target._finish_run):
            finishes[stream] += 1
            _finish(stream, *args)

        monkeypatch.setattr(target, "_finish_run", counting)
    monkeypatch.setattr(StreamLifecycle, "targets", targets)
    monkeypatch.setattr(StreamLifecycle, "plans", plans)
    monkeypatch.setattr(StreamLifecycle, "finishes", finishes)
    run_state_machine_as_test(StreamLifecycle, settings=settings(
        max_examples=60, stateful_step_count=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))
