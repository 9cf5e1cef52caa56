"""Unit tests for schemas, scans, sorts and operator plumbing."""

import pytest

from repro.errors import PlanError
from repro.api import Database
from repro.core.pattern import PatternNode, Predicate
from repro.document.node import Region
from repro.engine.context import EngineContext
from repro.engine.operators import (Operator, OrderCheckingIterator,
                                    group_by_column)
from repro.engine.scan import IndexScan
from repro.engine.sort import SortOperator
from repro.engine.tuples import Schema


class TestSchema:
    def test_positions(self):
        schema = Schema((3, 1, 4))
        assert schema.position(1) == 1
        assert 4 in schema
        assert 9 not in schema
        with pytest.raises(PlanError):
            schema.position(9)

    def test_duplicates_rejected(self):
        with pytest.raises(PlanError):
            Schema((1, 1))

    def test_concat(self):
        merged = Schema((0, 1)).concat(Schema((2,)))
        assert merged.node_ids == (0, 1, 2)
        with pytest.raises(PlanError, match="overlap"):
            Schema((0, 1)).concat(Schema((1,)))

    def test_binding_and_mapping(self):
        schema = Schema((0, 2))
        match = (Region(1, 2, 1), Region(5, 6, 2))
        assert schema.binding(match, 2) == Region(5, 6, 2)
        assert schema.as_mapping(match) == {0: Region(1, 2, 1),
                                            2: Region(5, 6, 2)}

    def test_canonical_key_order_independent(self):
        left = Schema((0, 1))
        right = Schema((1, 0))
        match_left = (1, 2)
        match_right = (2, 1)
        assert left.canonical_key(match_left) == right.canonical_key(
            match_right)


class TestOrderChecking:
    def test_passes_ordered_stream(self):
        schema = Schema((0,))
        stream = iter([(Region(1, 1, 1),), (Region(3, 3, 1),)])
        checked = OrderCheckingIterator(stream, schema, 0)
        assert len(list(checked)) == 2

    def test_rejects_disorder(self):
        schema = Schema((0,))
        stream = iter([(Region(3, 3, 1),), (Region(1, 1, 1),)])
        checked = OrderCheckingIterator(stream, schema, 0)
        with pytest.raises(PlanError, match="not ordered"):
            list(checked)


class TestGroupByColumn:
    def test_groups_adjacent_equal_regions(self):
        schema = Schema((0, 1))
        shared = Region(1, 5, 1)
        rows = [(shared, Region(2, 2, 2)), (shared, Region(3, 3, 2)),
                (Region(6, 8, 1), Region(7, 7, 2))]
        groups = list(group_by_column(iter(rows), schema, 0))
        assert [region for region, _ in groups] == [shared,
                                                    Region(6, 8, 1)]
        assert [len(bucket) for _, bucket in groups] == [2, 1]

    def test_empty_stream(self):
        assert list(group_by_column(iter(()), Schema((0,)), 0)) == []


@pytest.fixture
def engine(small_document):
    database = Database.from_document(small_document)
    return EngineContext(database.index, small_document)


class TestIndexScan:
    def test_scan_in_document_order(self, engine, small_document):
        scan = IndexScan(PatternNode(0, "employee"), engine)
        rows = list(scan.run())
        starts = [match[0].start for match in rows]
        assert starts == sorted(starts)
        assert len(rows) == small_document.tag_count("employee")
        assert engine.metrics.index_items == len(rows)

    def test_scan_single_use(self, engine):
        scan = IndexScan(PatternNode(0, "manager"), engine)
        list(scan.run())
        with pytest.raises(PlanError, match="single-use"):
            scan.run()

    def test_wildcard_scan_merges_tags(self, engine, small_document):
        scan = IndexScan(PatternNode(0, "*"), engine)
        rows = list(scan.run())
        assert len(rows) == len(small_document)
        starts = [match[0].start for match in rows]
        assert starts == list(range(len(small_document)))

    def test_predicate_filtering(self, engine):
        node = PatternNode(0, "name", (
            Predicate(kind="text", op="=", value="Ada Adams"),))
        rows = list(IndexScan(node, engine).run())
        assert len(rows) == 1

    def test_missing_tag_scans_empty(self, engine):
        rows = list(IndexScan(PatternNode(0, "unicorn"), engine).run())
        assert rows == []


class TestSortOperator:
    def test_sorts_by_requested_column(self, engine):
        scan = IndexScan(PatternNode(0, "employee"), engine)

        class Shuffle(Operator):
            def __init__(self, child):
                super().__init__(child.schema, child.ordered_by,
                                 child.metrics)
                self.child = child

            def _produce(self):
                rows = list(self.child.run())
                yield from reversed(rows)

        shuffled = Shuffle(scan)
        sorted_op = SortOperator(shuffled, 0)
        rows = list(sorted_op.run())
        starts = [match[0].start for match in rows]
        assert starts == sorted(starts)
        assert engine.metrics.sort_count == 1
        assert engine.metrics.sorted_items == len(rows)
        assert engine.metrics.sort_units > 0
