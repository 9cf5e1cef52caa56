"""Tests for streaming execution and first-result latency (Sec. 3.4)."""

import pytest

from repro.api import Database
from repro.core.pattern import Axis
from repro.core.plans import (IndexScanPlan, JoinAlgorithm, SortPlan,
                              StructuralJoinPlan)
from repro.engine.blocks import BLOCK_ROWS
from repro.engine.context import EngineContext
from repro.engine.executor import ENGINE_NAMES, Executor
from repro.errors import QueryCancelled
from repro.workloads import personnel_document


@pytest.fixture(scope="module")
def database():
    return Database.from_document(personnel_document(target_nodes=1500))


@pytest.fixture(scope="module")
def pattern(database):
    return database.compile("//manager//employee/name")


def fp_plan():
    inner = StructuralJoinPlan(
        IndexScanPlan(1), IndexScanPlan(2), 1, 2, Axis.CHILD,
        JoinAlgorithm.STACK_TREE_ANC)  # ordered by 1
    return StructuralJoinPlan(
        IndexScanPlan(0), inner, 0, 1, Axis.DESCENDANT,
        JoinAlgorithm.STACK_TREE_DESC)  # ordered by 1


def blocking_plan():
    inner = StructuralJoinPlan(
        IndexScanPlan(0), IndexScanPlan(1), 0, 1, Axis.DESCENDANT,
        JoinAlgorithm.STACK_TREE_DESC)  # ordered by 1
    joined = StructuralJoinPlan(
        inner, IndexScanPlan(2), 1, 2, Axis.CHILD,
        JoinAlgorithm.STACK_TREE_DESC)  # ordered by 2
    return SortPlan(joined, 0)  # top-level blocking sort


class TestTimeToFirst:
    def test_counts_and_ordering(self, database, pattern):
        executor = Executor(
            EngineContext(database.index, database.document), pattern)
        timing = executor.time_to_first(fp_plan(), results=5)
        assert timing.first_count == 5
        assert timing.total_count > 5
        assert 0 < timing.first_seconds <= timing.total_seconds

    def test_pipelined_beats_blocking_to_first_tuple(self, database,
                                                     pattern):
        """Sec. 3.4 in work done, not wall-clock: the counters as they
        stand when the first row is out, against the drained run's, on
        the iterator engine ``time_to_first`` runs."""
        executor = Executor(
            EngineContext(database.index, database.document), pattern)
        def at_first_row(plan):
            stream = executor.stream(plan, engine="tuple")
            assert len(next(stream.blocks())) == 1
            first = stream.metrics.counters()
            first_cost = stream.metrics.simulated_cost()
            stream.drain()
            return first, first_cost, stream

        _, pipelined_cost, pipelined = at_first_row(fp_plan())
        blocked_first, _, blocked = at_first_row(blocking_plan())
        assert pipelined.produced == blocked.produced > 1
        # the blocking plan cannot emit anything before its sort has
        # consumed the entire input: nothing is left to charge
        assert blocked_first["sorted_items"] == blocked.produced
        assert blocked_first == blocked.metrics.counters()
        # the pipelined plan's first tuple arrives early in its run
        assert pipelined_cost < pipelined.metrics.simulated_cost()

    def test_fewer_results_than_requested(self, database):
        sparse = database.compile("//department/phone")
        executor = Executor(
            EngineContext(database.index, database.document), sparse)
        plan = StructuralJoinPlan(
            IndexScanPlan(0), IndexScanPlan(1), 0, 1, Axis.CHILD,
            JoinAlgorithm.STACK_TREE_DESC)
        timing = executor.time_to_first(plan, results=10**9)
        assert timing.first_count == timing.total_count

    def test_database_facade(self, database, pattern):
        timing = database.time_to_first(pattern, algorithm="FP",
                                        results=3)
        assert timing.first_count == 3
        assert timing.first_seconds < timing.total_seconds


def executor_for(database, pattern):
    return Executor(EngineContext(database.index, database.document), pattern)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
class TestOneRunPath:
    """``execute`` is ``stream`` drained at once, on either engine."""

    @pytest.mark.parametrize("plan", [fp_plan, blocking_plan])
    def test_stream_yields_what_execute_returns(self, database, pattern,
                                                engine, plan):
        executor = executor_for(database, pattern)
        result = executor.execute(plan(), engine=engine)
        stream = executor.stream(plan(), engine=engine)
        assert stream.schema.node_ids == result.schema.node_ids
        assert list(stream) == result.tuples  # same rows, same order
        assert result.tuples
        assert stream.finished and stream.produced == len(result)
        assert stream.metrics.counters() == result.metrics.counters()
        assert stream.metrics.wall_seconds == stream.total_seconds > 0

    def test_traced_shares_sum_to_the_run_totals(self, database, pattern,
                                                 engine):
        executor = executor_for(database, pattern)
        result = executor.execute(blocking_plan(), engine=engine,
                                  spans=True)
        stream = executor.stream(blocking_plan(), engine=engine,
                                 spans=True)
        assert stream.fetchall() == result.rows
        untraced = executor.execute(blocking_plan(), engine=engine)
        for span, metrics in ((result.span, result.metrics),
                              (stream.span, stream.metrics)):
            assert span.name.startswith("Block") == (engine == "block")
            assert span.output_rows == len(result)
            for name, total in metrics.counters().items():
                assert sum(node.metrics.counters()[name]
                           for node in span.walk_post_order()) == total
            assert metrics.counters() == untraced.metrics.counters()

    def test_cancel_raises_and_finishes_once(self, database, pattern,
                                             engine):
        """*cancel* is consulted once per block pulled — not per row —
        before the block is handed out."""
        finished = []
        seen = []
        consulted = []  # rows handed out at each consultation

        def cancel():
            consulted.append(len(seen))
            return len(consulted) > 2

        stream = executor_for(database, pattern).stream(
            fp_plan(), engine=engine, cancel=cancel,
            on_finish=finished.append)
        handed = 1 + BLOCK_ROWS
        with pytest.raises(QueryCancelled, match=f"after {handed} rows"):
            for row in stream:
                seen.append(row)
        assert consulted == [0, 1, handed]
        assert stream.cancelled and stream.finished
        assert not stream.exhausted
        assert stream.produced == len(seen) == handed
        assert finished == [stream]
        stream.close()
        assert finished == [stream]

    def test_fetchall_returns_what_is_left(self, database, pattern,
                                           engine):
        executor = executor_for(database, pattern)
        result = executor.execute(fp_plan(), engine=engine)
        expected = result.rows
        stream = executor.stream(fp_plan(), engine=engine)
        rows = iter(stream)
        head = [next(rows), next(rows)]  # the view: Region rows,
        assert head == result.tuples[:2]  # the rest as label rows
        assert stream.produced == 2
        assert [*expected[:2], *stream.fetchall()] == list(expected)
        assert stream.finished and stream.produced == len(expected)
        assert stream.fetchall() == [] and list(rows) == []
        # and a stream nobody started to read is handed over whole
        whole = executor.stream(fp_plan(), engine=engine)
        assert whole.fetchall() == expected
        assert whole.finished and whole.produced == len(expected)
        assert whole.fetchall() == [] and list(whole) == []

    def test_close_before_the_first_pull_finishes_the_stream(
            self, database, pattern, engine):
        """``iter()`` makes a generator that has not started; closing
        it runs no ``finally``, so ``close`` must finish the stream."""
        for start in (lambda stream: None, iter):
            finished = []
            stream = executor_for(database, pattern).stream(
                fp_plan(), engine=engine, spans=True,
                on_finish=finished.append)
            start(stream)
            stream.close()
            assert stream.finished and finished == [stream]
            assert list(stream) == [] and stream.produced == 0

    def test_a_returned_row_list_is_the_callers(self, database, engine):
        """A predicate-free scan's rows are the decode cache's list;
        what ``execute`` hands out must be a copy of it."""
        pattern = database.compile("//employee")
        executor = executor_for(database, pattern)
        first = executor.execute(IndexScanPlan(0), engine=engine)
        expected = list(first.tuples)
        assert expected
        first.tuples.clear()
        again = executor.execute(IndexScanPlan(0), engine=engine)
        assert again.tuples == expected
        assert list(executor.stream(IndexScanPlan(0),
                                    engine=engine)) == expected
