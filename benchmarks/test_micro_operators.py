"""Micro-benchmarks of the physical operators.

Not a paper artifact, but the foundation the tables stand on: index
scan throughput, Stack-Tree-Desc vs. Stack-Tree-Anc vs. the quadratic
nested-loop baseline, and sort cost.  pytest-benchmark gives stable
per-operator timings here.  The block engine's two Stack-Tree joins
are timed on non-nesting and nesting ancestors, each on the CHILD and
the DESCENDANT axis (Pers ``manager/name`` and Mbench's ``eNest/eNest``
join nesting ancestors with a whole posting of descendants), and on
Mbench's ``eNest//eNest`` self-join, each asserting its tuple twin's
row count.
"""

import pytest

from repro.core.pattern import Axis, PatternNode
from repro.engine.blocks import (BlockIndexScan, BlockStackTreeAncJoin,
                                 BlockStackTreeDescJoin)
from repro.engine.context import EngineContext
from repro.engine.nestedloop import NestedLoopJoin
from repro.engine.scan import IndexScan
from repro.engine.sort import SortOperator
from repro.engine.stackjoin import StackTreeAncJoin, StackTreeDescJoin


def engine(database):
    return EngineContext(database.index, database.document)


def drain(operator):
    return sum(1 for _ in operator.run())


class TestScans:
    def test_index_scan(self, benchmark, pers_db):
        def scan():
            return drain(IndexScan(PatternNode(0, "employee"),
                                   engine(pers_db)))

        count = benchmark(scan)
        assert count == pers_db.document.tag_count("employee")

    def test_wildcard_scan(self, benchmark, pers_db):
        def scan():
            return drain(IndexScan(PatternNode(0, "*"), engine(pers_db)))

        count = benchmark(scan)
        assert count == len(pers_db.document)

    def test_predicate_scan(self, benchmark, mbench_db):
        from repro.core.pattern import Predicate

        node = PatternNode(0, "eNest", (
            Predicate(kind="attribute", op="=", value="1",
                      name="aFour"),))

        def scan():
            return drain(IndexScan(node, engine(mbench_db)))

        count = benchmark(scan)
        assert 0 < count < mbench_db.document.tag_count("eNest")


class TestJoins:
    @pytest.mark.parametrize("join_class,label", [
        (StackTreeDescJoin, "stack-tree-desc"),
        (StackTreeAncJoin, "stack-tree-anc"),
        (NestedLoopJoin, "nested-loop"),
    ])
    def test_manager_employee_join(self, benchmark, pers_db, join_class,
                                   label):
        def run():
            ctx = engine(pers_db)
            join = join_class(
                IndexScan(PatternNode(0, "manager"), ctx),
                IndexScan(PatternNode(1, "employee"), ctx),
                0, 1, Axis.DESCENDANT)
            return drain(join)

        count = benchmark(run)
        assert count > 0
        benchmark.extra_info["output_tuples"] = count

    def test_self_join_enest(self, benchmark, mbench_db):
        def run():
            ctx = engine(mbench_db)
            join = StackTreeDescJoin(
                IndexScan(PatternNode(0, "eNest"), ctx),
                IndexScan(PatternNode(1, "eNest"), ctx),
                0, 1, Axis.DESCENDANT)
            return drain(join)

        count = benchmark(run)
        benchmark.extra_info["output_tuples"] = count


#: each block Stack-Tree join and the tuple join whose row count it
#: must match
TWINS = {BlockStackTreeDescJoin: StackTreeDescJoin,
         BlockStackTreeAncJoin: StackTreeAncJoin}


def scan_join(database, scan, join, ancestor, descendant, axis):
    ctx = engine(database)
    args = (scan(PatternNode(0, ancestor), ctx),
            scan(PatternNode(1, descendant), ctx), 0, 1, axis)
    # a block join gets the run's context, as a block scan does
    return join(*args, ctx) if join in TWINS else join(*args)


@pytest.mark.parametrize("join", list(TWINS), ids=["desc", "anc"])
class TestBlockStackTreeJoins:
    @pytest.mark.parametrize("ancestor,descendant,axis", [
        ("employee", "name", Axis.CHILD),        # non-nesting
        ("employee", "name", Axis.DESCENDANT),   # non-nesting
        ("manager", "employee", Axis.CHILD),     # nesting
        ("manager", "name", Axis.CHILD),         # nesting, whole posting
        ("manager", "employee", Axis.DESCENDANT),  # nesting: windows
    ])
    def test_join(self, benchmark, pers_db, join, ancestor, descendant,
                  axis):
        self.check(benchmark, pers_db, join, ancestor, descendant, axis)

    def test_self_join_enest(self, benchmark, mbench_db, join):
        self.check(benchmark, mbench_db, join, "eNest", "eNest",
                   Axis.DESCENDANT)

    def test_child_self_join_enest(self, benchmark, mbench_db, join):
        self.check(benchmark, mbench_db, join, "eNest", "eNest",
                   Axis.CHILD)

    @staticmethod
    def check(benchmark, database, join, ancestor, descendant, axis):
        def run():
            return len(scan_join(database, BlockIndexScan, join,
                                 ancestor, descendant, axis).block())

        count = benchmark(run)
        assert count == drain(scan_join(database, IndexScan, TWINS[join],
                                        ancestor, descendant, axis)) > 0
        benchmark.extra_info["output_tuples"] = count


class TestSort:
    def test_sort_join_output(self, benchmark, pers_db):
        def run():
            ctx = engine(pers_db)
            join = StackTreeDescJoin(
                IndexScan(PatternNode(0, "manager"), ctx),
                IndexScan(PatternNode(1, "employee"), ctx),
                0, 1, Axis.DESCENDANT)
            return drain(SortOperator(join, 0))

        count = benchmark(run)
        assert count > 0
