"""Write-path tests: WAL framing, mutations, snapshots, durability."""

from __future__ import annotations

import gc
import io
import threading
import weakref

import pytest

from repro.api import Database
from repro.document.document import XmlDocument
from repro.document.node import Region
from repro.document.parser import parse_xml
from repro.errors import StorageError, TransactionError
from repro.storage.pages import PAGE_SIZE
from repro.txn.db import create_database, open_database
from repro.txn.labels import pick_gap, relabel
from repro.txn.wal import (BEGIN, CATALOG, CHECKPOINT, COMMIT, PAGE,
                           WriteAheadLog)
from repro.workloads import personnel_document
from tests.conftest import PERSONNEL_XML, canonical_bindings
from tests.test_document import assert_rebuilds_alike

WIDGETS_XML = "<catalog><widget><name>gizmo</name></widget></catalog>"


def fresh_database() -> Database:
    """A private, mutable copy of the shared personnel document."""
    return Database.from_document(parse_xml(PERSONNEL_XML, name="pers"))


def node_shape(document) -> list[tuple]:
    """Structure-only identity: tags, text, and nesting order."""
    shape = []
    for node in document.nodes:
        parent = (document.node(node.parent_id).tag
                  if node.parent_id >= 0 else None)
        shape.append((node.tag, node.text, node.level, parent))
    return shape


def query_bindings(database: Database, xpath: str,
                   engine: str = "block") -> set[tuple]:
    pattern = database.compile(xpath)
    execution = database.execute(database.optimize(pattern).plan,
                                 pattern, engine=engine)
    return canonical_bindings(execution.bindings())


class TestWalFraming:
    def test_roundtrip_all_record_types(self):
        wal = WriteAheadLog(None)
        wal.append_begin(7)
        wal.append_page(7, 3, bytes(PAGE_SIZE))
        wal.append_catalog(7, {"name": "db", "node_count": 5})
        wal.append_commit(7)
        wal.append_checkpoint({"pages": 4})
        records = list(wal.replay())
        assert [r.type for r in records] == [BEGIN, PAGE, CATALOG,
                                             COMMIT, CHECKPOINT]
        assert records[0].txn_id == 7
        assert records[1].page_id == 3
        assert records[1].page_image == bytes(PAGE_SIZE)
        assert records[2].json_payload()["node_count"] == 5
        assert records[4].json_payload() == {"pages": 4}
        assert wal.torn_offset is None

    def test_page_record_validates_size(self):
        wal = WriteAheadLog(None)
        with pytest.raises(StorageError):
            wal.append_page(1, 0, b"short")

    def test_torn_tail_is_discarded_silently(self):
        wal = WriteAheadLog(None)
        wal.append_begin(1)
        wal.append_commit(1)
        intact = wal.raw_bytes()
        boundaries = wal.record_boundaries()
        assert boundaries[0] == 0 and boundaries[-1] == len(intact)
        # every proper prefix cut mid-record keeps only whole records
        wal.restore_bytes(intact[:len(intact) - 5])
        records = list(wal.replay())
        assert [r.type for r in records] == [BEGIN]
        assert wal.torn_offset == boundaries[1]

    def test_corrupt_payload_ends_replay(self):
        wal = WriteAheadLog(None)
        wal.append_begin(1)
        wal.append_commit(1)
        wal.append_begin(2)
        raw = bytearray(wal.raw_bytes())
        middle = wal.record_boundaries()[1] + 13  # inside record 2
        raw[middle] ^= 0xFF
        wal.restore_bytes(bytes(raw))
        records = list(wal.replay())
        assert [r.type for r in records] == [BEGIN]
        assert wal.torn_offset is not None

    def test_file_backed_reopen(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_begin(1)
            wal.append_commit(1)
        with WriteAheadLog(path) as wal:
            assert [r.type for r in wal.replay()] == [BEGIN, COMMIT]
            wal.truncate(0)
            assert wal.size == 0


class TestGappedLabels:
    def test_pick_gap(self):
        assert pick_gap(100, 4) == 20
        assert pick_gap(4, 4) == 1
        assert pick_gap(3, 4) is None

    def test_relabel_preserves_nesting(self):
        document = parse_xml("<a><b><c/><d/></b><e/></a>")
        placed = relabel(document.nodes, base=1000, gap=10,
                         level_of_top=2, parent_of_top=5)
        by_tag = {node.tag: node for node in placed}
        assert by_tag["a"].parent_id == 5 and by_tag["a"].level == 2
        for tag in "bcde":
            node = by_tag[tag]
            parent = by_tag[{"b": "a", "c": "b", "d": "b",
                             "e": "a"}[tag]]
            assert node.parent_id == parent.node_id
            assert parent.start < node.start <= parent.end
            assert node.level == parent.level + 1
        starts = [node.start for node in placed]
        assert starts == sorted(starts) and starts[0] == 1000


class TestMutations:
    def test_append_document_matches_oracle(self):
        database = fresh_database()
        before = len(database.document)
        with database.transaction() as txn:
            new_root = txn.append_document(parse_xml(PERSONNEL_XML))
        assert len(database.document) == 2 * before
        assert database.document.node(new_root).tag == "company"
        oracle = Database.from_document(
            parse_xml(PERSONNEL_XML, name="oracle"))
        with oracle.transaction() as txn:
            txn.append_document(parse_xml(PERSONNEL_XML))
        for engine in ("block", "tuple"):
            assert (query_bindings(database, "//manager//employee/name",
                                   engine)
                    != set())  # non-trivial
            assert node_shape(database.document) == node_shape(
                oracle.document)

    def test_mutated_database_queries_like_rebuilt(self):
        database = fresh_database()
        with database.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))
            managers = [node for node in database.document.nodes
                        if node.tag == "manager"]
            txn.delete_subtree(managers[-1].node_id)
        rebuilt = Database.from_document(
            XmlDocument(database.document.nodes, name="rebuilt"))
        for xpath in ("//manager//employee/name", "//widget/name",
                      "//manager/name"):
            for engine in ("block", "tuple"):
                assert (query_bindings(database, xpath, engine)
                        == query_bindings(rebuilt, xpath, engine)), \
                    (xpath, engine)

    def test_insert_forces_local_relabel(self):
        # dense parser labels leave no gap under <b>: inserting there
        # must relabel an enclosing subtree, not corrupt the document
        database = Database.from_document(
            parse_xml("<a><b><c/></b><d/></a>"))
        b_id = next(node.node_id for node in database.document.nodes
                    if node.tag == "b")
        with database.transaction() as txn:
            txn.insert_subtree(b_id, parse_xml("<x><y/></x>"))
        tags = [node.tag for node in database.document.nodes]
        assert tags == ["a", "b", "c", "x", "y", "d"]
        assert query_bindings(database, "//b/x") != set()

    def test_delete_root_rejected(self):
        database = fresh_database()
        with pytest.raises(TransactionError):
            with database.transaction() as txn:
                txn.delete_subtree(database.document.root.node_id)
        # the failed transaction released the writer lock
        with database.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))

    def test_transaction_reuse_after_commit_rejected(self):
        database = fresh_database()
        txn = database.transactions.begin()
        txn.append_document(parse_xml(WIDGETS_XML))
        txn.commit()
        with pytest.raises(TransactionError):
            txn.append_document(parse_xml(WIDGETS_XML))

    def test_abort_discards_everything(self):
        database = fresh_database()
        before = node_shape(database.document)
        epoch = database.statistics_epoch
        txn = database.transactions.begin()
        txn.append_document(parse_xml(WIDGETS_XML))
        txn.abort()
        assert node_shape(database.document) == before
        assert database.statistics_epoch == epoch
        assert query_bindings(database, "//widget") == set()

    def test_context_manager_aborts_on_error(self):
        database = fresh_database()
        with pytest.raises(RuntimeError):
            with database.transaction() as txn:
                txn.append_document(parse_xml(WIDGETS_XML))
                raise RuntimeError("boom")
        assert query_bindings(database, "//widget") == set()
        assert database.transactions.metrics.aborted == 1

    def test_empty_commit_is_free(self):
        database = fresh_database()
        epoch = database.statistics_epoch
        with database.transaction():
            pass
        assert database.statistics_epoch == epoch
        assert database.transactions.metrics.empty_commits == 1


def test_commit_validates_in_the_size_of_its_delta(monkeypatch):
    """A 4-node append to Pers 5 000 relabels nothing: its delta is the
    four nodes plus the root, whose end grows.  The commit derives its
    document from the published one, so it checks nesting once per
    node the delta touches, not once per node of the document."""
    database = Database.from_document(
        personnel_document(target_nodes=5000, seed=42))
    calls = []
    is_parent_of = Region.is_parent_of

    def counting(self, other):
        calls.append(other)
        return is_parent_of(self, other)

    txn = database.transactions.begin()
    txn.append_document(parse_xml(
        "<employee><name>Ada</name><phone>+1-555</phone>"
        "<email>ada@example.com</email></employee>"))
    monkeypatch.setattr(Region, "is_parent_of", counting)
    result = txn.commit()
    monkeypatch.undo()
    assert (txn.relabels, result.added, result.removed) == (0, 5, 1)
    assert 1 <= len(calls) <= result.added + result.removed
    assert_rebuilds_alike(database.document)


def test_begin_touches_no_node(monkeypatch):
    """A transaction records its edits over the published document, so
    beginning one on Pers 5 000 walks no node table."""
    database = Database.from_document(
        personnel_document(target_nodes=5000, seed=42))
    manager = database.transactions

    def refuse(self):
        raise AssertionError("begin walked the node table")

    monkeypatch.setattr(XmlDocument, "__iter__", refuse)
    txn = manager.begin()
    monkeypatch.undo()
    assert txn.status == "open"
    txn.abort()


class TestSnapshotIsolation:
    def test_old_snapshot_survives_commit(self):
        database = fresh_database()
        snapshot = database.read_snapshot()
        with database.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))
        assert len(snapshot.document) < len(database.document)
        fresh = database.read_snapshot()
        assert fresh.statistics_epoch == snapshot.statistics_epoch + 1
        # the old snapshot's index still holds exactly the old nodes
        index = snapshot.index
        assert sorted(region.start for tag in index.tags()
                      for region in index.scan(tag)) == [
            node.start for node in snapshot.document]

    def test_commit_invalidates_plan_cache(self):
        database = fresh_database()
        pattern = "//manager//employee/name"
        database.query_many([pattern, pattern])
        hits_before = database.stats()["plan_cache"]["hits"]
        assert hits_before >= 1
        with database.transaction() as txn:
            txn.append_document(parse_xml(PERSONNEL_XML))
        database.query_many([pattern])
        cache = database.stats()["plan_cache"]
        assert cache["misses"] >= 2  # re-planned after the commit

    def test_single_writer_blocks_second_begin(self):
        database = fresh_database()
        txn = database.transactions.begin()
        entered = threading.Event()
        done = threading.Event()

        def second_writer():
            entered.set()
            other = database.transactions.begin()
            other.abort()
            done.set()

        thread = threading.Thread(target=second_writer, daemon=True)
        thread.start()
        entered.wait(5.0)
        assert not done.wait(0.1)  # blocked while txn holds the lock
        txn.abort()
        assert done.wait(5.0)
        thread.join(5.0)

    def test_kept_result_stops_pinning_the_old_index(self):
        """A result whose ``Region`` view is built keeps its rows and
        regions, but not the tag index it resolved them in: after a
        commit swaps the index out, the old one is collectable."""
        database = fresh_database()
        result = database.query("//manager//employee/name").execution
        regions = result.tuples
        old_index = weakref.ref(database.index)
        with database.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))
        gc.collect()
        assert old_index() is None
        assert result.tuples is regions and len(regions) == len(result)

    def test_new_tag_becomes_estimable_without_reload(self):
        database = fresh_database()
        with database.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))
        result = database.query("//widget/name")
        assert len(result.execution) == 1
        assert result.optimization.estimated_cost > 0


class TestDurability:
    def test_commits_survive_reopen(self, tmp_path):
        database = create_database(tmp_path / "db", xml=PERSONNEL_XML)
        with database.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))
        shape = node_shape(database.document)
        reopened = open_database(tmp_path / "db")
        recovery = reopened.transactions.last_recovery
        assert recovery.committed == [1]
        assert node_shape(reopened.document) == shape
        assert query_bindings(reopened, "//widget/name") != set()

    def test_uncommitted_work_invisible_after_reopen(self, tmp_path):
        database = create_database(tmp_path / "db", xml=PERSONNEL_XML)
        txn = database.transactions.begin()
        txn.append_document(parse_xml(WIDGETS_XML))
        # crash before commit: nothing was logged, nothing survives
        reopened = open_database(tmp_path / "db")
        assert query_bindings(reopened, "//widget") == set()
        assert reopened.transactions.last_recovery.clean

    def test_checkpoint_truncates_and_stays_reopenable(self, tmp_path):
        database = create_database(tmp_path / "db", xml=PERSONNEL_XML)
        with database.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))
        logged = database.transactions.wal.size
        dropped = database.checkpoint()
        assert dropped == logged
        assert database.transactions.wal.size < logged
        reopened = open_database(tmp_path / "db")
        assert reopened.transactions.last_recovery.clean
        assert query_bindings(reopened, "//widget/name") != set()

    def test_commit_after_torn_recovery_stays_durable(self, tmp_path):
        # regression: recovery must cut the torn tail off the log —
        # appends go to the file end, so a partial frame left in the
        # middle would strand every later commit behind it
        database = create_database(tmp_path / "db", xml=PERSONNEL_XML)
        with database.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))
        wal = database.transactions.wal
        wal.truncate(wal.size - 7)  # tear into the COMMIT frame
        reopened = open_database(tmp_path / "db")
        assert reopened.transactions.last_recovery.torn_offset is not None
        with reopened.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))
        final = open_database(tmp_path / "db")
        recovery = final.transactions.last_recovery
        assert recovery.clean and recovery.committed == [1]
        assert query_bindings(final, "//widget/name") != set()

    def test_create_twice_rejected(self, tmp_path):
        create_database(tmp_path / "db", xml=PERSONNEL_XML)
        with pytest.raises(TransactionError):
            create_database(tmp_path / "db", xml=PERSONNEL_XML)
        with pytest.raises(TransactionError):
            open_database(tmp_path / "missing")

    def test_write_path_metrics_exported(self, tmp_path):
        database = create_database(tmp_path / "db", xml=PERSONNEL_XML)
        with database.transaction() as txn:
            txn.append_document(parse_xml(WIDGETS_XML))
        stats = database.stats()
        assert stats["write_path"]["committed"] == 1
        assert stats["write_path"]["wal_bytes_current"] > 0
        text = database.service.export_metrics("prometheus")
        assert "repro_wal_size_bytes" in text
        assert 'counter="committed"' in text
