"""Crash-injection recovery tests.

The write path's crash model: because commits are copy-on-write, the
pages file plus *any* prefix of the write-ahead log is a valid crash
state.  So we run a random mutation workload against a durable
database, snapshot the expected document after every commit, and then
reopen a copy of the directory with the log cut at **every** record
boundary (and mid-record, and with corrupted bytes): recovery must
surface exactly the transactions whose COMMIT made it into the
prefix, and the recovered database must answer queries identically to
one rebuilt from scratch from the expected document — on both
execution engines.
"""

from __future__ import annotations

import random
import shutil

import pytest

from repro.api import Database
from repro.document.document import XmlDocument
from repro.txn.db import (PAGES_FILE, WAL_FILE, create_database,
                          open_database)
from repro.txn.wal import COMMIT, WriteAheadLog
from tests.conftest import random_document
from tests.test_txn import node_shape, query_bindings

TXNS = 5
XPATHS = ("//a//b", "//root//c/d", "//b/c")


def small_subtree(rng: random.Random) -> XmlDocument:
    return random_document(rng.randrange(1 << 30),
                           size=rng.randint(3, 12))


def run_workload(path, seed: int = 7):
    """Create a database, run TXNS random transactions against it.

    Returns ``(oracle, committed_at)``: the expected node list after
    each commit (``oracle[0]`` is the initial document), and the WAL
    offset at which each transaction's COMMIT record ends.
    """
    rng = random.Random(seed)
    database = create_database(path, document=random_document(seed,
                                                              size=50))
    oracle = {0: list(database.document.nodes)}
    for txn_id in range(1, TXNS + 1):
        document = database.document
        with database.transaction() as txn:
            action = rng.random()
            victims = [node for node in document.nodes
                       if node.parent_id >= 0]
            if action < 0.30 and victims:
                target = rng.choice(victims)
                subtree = len(list(document.subtree(target)))
                if subtree <= len(document) // 3:
                    txn.delete_subtree(target.node_id)
                else:
                    txn.append_document(small_subtree(rng))
            elif action < 0.65 and victims:
                parent = rng.choice(victims)
                txn.insert_subtree(parent.node_id, small_subtree(rng))
            else:
                txn.append_document(small_subtree(rng))
        oracle[txn_id] = list(database.document.nodes)
    committed_at = {}
    for record in database.transactions.wal.replay():
        if record.type == COMMIT:
            committed_at[record.txn_id] = record.end_offset
    assert sorted(committed_at) == list(range(1, TXNS + 1))
    return oracle, committed_at


def reopen_with_wal(workdir, crash_dir, wal_bytes: bytes):
    """Copy the pages file, install *wal_bytes*, and recover."""
    crash_dir.mkdir(exist_ok=True)
    shutil.copyfile(workdir / PAGES_FILE, crash_dir / PAGES_FILE)
    (crash_dir / WAL_FILE).write_bytes(wal_bytes)
    return open_database(crash_dir)


class TestCrashInjection:
    @pytest.fixture(scope="class")
    def workload(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("txn-workload") / "db"
        oracle, committed_at = run_workload(workdir)
        wal_bytes = (workdir / WAL_FILE).read_bytes()
        scratch = WriteAheadLog(None)
        scratch.restore_bytes(wal_bytes)
        list(scratch.replay())
        assert scratch.torn_offset is None
        return (workdir, oracle, committed_at, wal_bytes,
                scratch.record_boundaries())

    def test_truncation_at_every_boundary(self, workload, tmp_path):
        workdir, oracle, committed_at, wal_bytes, boundaries = workload
        assert boundaries[-1] == len(wal_bytes)
        # also cut 3 bytes into the next record: same visible prefix
        cuts = sorted(set(boundaries)
                      | {cut + 3 for cut in boundaries[:-1]})
        for index, cut in enumerate(cuts):
            expected = sorted(txn_id for txn_id, end
                              in committed_at.items() if end <= cut)
            reopened = reopen_with_wal(workdir, tmp_path / f"c{index}",
                                       wal_bytes[:cut])
            recovery = reopened.transactions.last_recovery
            assert recovery.committed == expected, cut
            tail = max(expected, default=0)
            # anything in flight at the cut must be discarded, and
            # nothing committed may be
            assert all(txn_id > tail for txn_id in recovery.discarded)
            assert node_shape(reopened.document) == node_shape(
                XmlDocument(oracle[tail], name="oracle")), cut

    def test_recovered_database_queries_like_rebuilt(self, workload,
                                                     tmp_path):
        workdir, oracle, committed_at, wal_bytes, _ = workload
        # cut at each commit boundary: the interesting visible states
        for txn_id, end in sorted(committed_at.items()):
            reopened = reopen_with_wal(workdir, tmp_path / f"q{txn_id}",
                                       wal_bytes[:end])
            rebuilt = Database.from_document(
                XmlDocument(oracle[txn_id], name="oracle"))
            for xpath in XPATHS:
                for engine in ("block", "tuple"):
                    assert (query_bindings(reopened, xpath, engine)
                            == query_bindings(rebuilt, xpath, engine)
                            ), (txn_id, xpath, engine)

    def test_corrupted_record_ends_replay(self, workload, tmp_path):
        workdir, oracle, committed_at, wal_bytes, boundaries = workload
        # flip one byte inside the record that follows txn 2's COMMIT
        cut = committed_at[2]
        raw = bytearray(wal_bytes)
        raw[cut + 12] ^= 0xFF
        reopened = reopen_with_wal(workdir, tmp_path / "corrupt",
                                   bytes(raw))
        recovery = reopened.transactions.last_recovery
        assert recovery.committed == [1, 2]
        assert recovery.torn_offset == cut
        assert node_shape(reopened.document) == node_shape(
            XmlDocument(oracle[2], name="oracle"))

    def test_full_log_recovers_final_state(self, workload, tmp_path):
        workdir, oracle, committed_at, wal_bytes, _ = workload
        reopened = reopen_with_wal(workdir, tmp_path / "full",
                                   wal_bytes)
        recovery = reopened.transactions.last_recovery
        assert recovery.committed == list(range(1, TXNS + 1))
        assert recovery.torn_offset is None
        assert node_shape(reopened.document) == node_shape(
            XmlDocument(oracle[TXNS], name="oracle"))
        # and the recovered database accepts new transactions
        with reopened.transaction() as txn:
            txn.append_document(random_document(99, size=5))
        assert reopened.transactions.metrics.committed == 1


def test_logged_catalog_equals_the_checkpointed_catalog(tmp_path):
    """One ``catalog_payload``: what recovery reads out of the log
    after the last commit is, key for key, what the next checkpoint's
    ``persist()`` writes into the page-0 catalog."""
    from repro.storage.catalog import read_catalog

    workdir = tmp_path / "db"
    run_workload(workdir)  # appends, inserts and a delete (seed 7)
    crashed = reopen_with_wal(workdir, tmp_path / "crash",
                              (workdir / WAL_FILE).read_bytes())
    logged = crashed.transactions.last_recovery.catalog_payload
    assert logged["store_pages"]
    with open_database(workdir) as database:
        database.checkpoint()
        assert read_catalog(database.pool) == logged


def test_crash_inside_checkpoint_folds_to_the_checkpointed_catalog(
        tmp_path, monkeypatch):
    """``checkpoint()`` made the pages file and its page-0 catalog
    durable, then died before cutting the log: the old log's deltas,
    folded over a catalog that already holds them, change nothing."""
    from repro.storage.catalog import read_catalog

    workdir = tmp_path / "db"
    oracle, _ = run_workload(workdir)
    wal_bytes = (workdir / WAL_FILE).read_bytes()

    def crash(self, size=0):
        raise RuntimeError("killed before the log was cut")

    with open_database(workdir) as database:
        monkeypatch.setattr(WriteAheadLog, "truncate", crash)
        with pytest.raises(RuntimeError, match="killed"):
            database.checkpoint()
        monkeypatch.undo()
        checkpointed = read_catalog(database.pool)
        document = list(database.document.nodes)
    assert (workdir / WAL_FILE).read_bytes() == wal_bytes
    reopened = reopen_with_wal(workdir, tmp_path / "crash", wal_bytes)
    recovery = reopened.transactions.last_recovery
    assert recovery.committed == list(range(1, TXNS + 1))
    assert recovery.catalog_payload == checkpointed
    assert list(reopened.document.nodes) == document
    assert node_shape(reopened.document) == node_shape(
        XmlDocument(oracle[TXNS], name="oracle"))


def test_a_log_of_full_catalogs_is_refused(tmp_path):
    """A log whose CATALOG records hold whole catalogs — the format
    before commits logged deltas — is refused, not folded wrongly."""
    from repro.errors import WalFormatError
    from repro.storage.catalog import catalog_payload

    workdir = tmp_path / "db"
    database = create_database(workdir, document=random_document(3,
                                                                 size=30))
    wal = database.transactions.wal
    wal.append_begin(1)
    wal.append_catalog(1, catalog_payload(database.name, database.store,
                                          database.index))
    wal.append_commit(1)
    database.close()
    with pytest.raises(WalFormatError, match="not a catalog delta"):
        open_database(workdir)


def test_the_logged_catalog_does_not_grow_with_history():
    """A commit logs what it changed: after 60 alternating appends and
    deletes the last CATALOG record is no larger than twice the first,
    where whole catalogs grew with every tombstone ever written."""
    from repro.document.parser import parse_xml
    from repro.txn.wal import CATALOG
    from repro.workloads import personnel_document

    database = Database.from_document(
        personnel_document(target_nodes=2000, seed=42))
    appended = None
    for step in range(60):
        with database.transaction() as txn:
            if step % 2 == 0:
                appended = txn.append_document(parse_xml(
                    f'<employee id="g{step}"><name>Grow {step}</name>'
                    "</employee>"))
            else:
                txn.delete_subtree(appended)
    sizes = [len(record.payload)
             for record in database.transactions.wal.replay()
             if record.type == CATALOG]
    assert len(sizes) == 60
    assert sizes[-1] <= 2 * sizes[0], sizes


# -- the tag index decides which stored record is live ---------------------

REUSE_XML = ("<r><p><a>x</a><c><d>1</d><d>2</d><d>3</d></c></p><q/></r>")


@pytest.mark.parametrize("checkpointed", [False, True],
                         ids=["recovered", "checkpointed"])
def test_a_reused_node_id_opens_to_its_last_record(tmp_path,
                                                   checkpointed):
    """A deleted subtree's root label goes to a node inserted later, so
    the store holds two records of one id: the reopened document is the
    live one, whether the log is replayed or was checkpointed away."""
    from repro.document.parser import parse_xml

    workdir = tmp_path / "db"
    database = create_database(workdir, xml=REUSE_XML)
    parent = database.document.nodes[1]
    victim = database.document.children(parent)[-1]
    assert (parent.tag, victim.tag) == ("p", "c")
    with database.transaction() as txn:
        txn.delete_subtree(victim.node_id)
    with database.transaction() as txn:
        reused = txn.insert_subtree(parent.node_id,
                                    parse_xml("<e>new</e>"))
    assert reused == victim.node_id
    live = list(database.document.nodes)
    assert database.document.node(reused).tag == "e"
    if checkpointed:
        database.checkpoint()
    database.close()
    with open_database(workdir) as reopened:
        recovery = reopened.transactions.last_recovery
        assert recovery.committed == ([] if checkpointed else [1, 2])
        assert list(reopened.document.nodes) == live


def test_an_indexed_id_without_a_stored_record_is_refused():
    """The index names the live ids; if the store's chain, as the
    catalog gives it, holds no record for one of them, ``open`` refuses
    the database instead of building a document without it."""
    from repro.errors import StorageError
    from repro.storage.catalog import read_catalog
    from repro.workloads import personnel_document

    database = Database.from_document(
        personnel_document(target_nodes=500, seed=42))
    database.persist()
    catalog = read_catalog(database.pool)
    assert len(catalog["store_pages"]) > 1
    catalog["store_pages"] = catalog["store_pages"][:-1]
    with pytest.raises(StorageError, match="no stored record has"):
        Database.open(database.disk, catalog=catalog)


def test_a_database_written_with_tombstones_opens_to_its_document(
        tmp_path, monkeypatch):
    """Catalogs and deltas written while the store kept tombstones carry
    a ``deleted_rids`` key, on page 0 and in the log; a reader ignores
    it and opens the same document."""
    from repro.document.parser import parse_xml
    from repro.storage import catalog
    from repro.storage.catalog import read_catalog
    from repro.txn import mutate
    from repro.txn.wal import CATALOG

    tombstones = [[1, 0], [1, 3]]
    payload, delta = catalog.catalog_payload, mutate.catalog_delta
    monkeypatch.setattr(catalog, "catalog_payload", lambda *args: {
        **payload(*args), "deleted_rids": tombstones})
    monkeypatch.setattr(mutate, "catalog_delta", lambda *args: {
        **delta(*args), "deleted_rids": tombstones})
    workdir = tmp_path / "db"
    database = create_database(workdir, document=random_document(5,
                                                                 size=40))
    victims = [node for node in database.document.nodes
               if node.level == 1]
    with database.transaction() as txn:
        txn.delete_subtree(victims[0].node_id)
    database.checkpoint()
    with database.transaction() as txn:
        txn.delete_subtree(victims[-1].node_id)
    with database.transaction() as txn:
        txn.append_document(parse_xml("<a><b>late</b></a>"))
    live = list(database.document.nodes)
    assert read_catalog(database.pool)["deleted_rids"] == tombstones
    logged = [record.json_payload()
              for record in database.transactions.wal.replay()
              if record.type == CATALOG]
    assert len(logged) == 2
    assert all(entry["deleted_rids"] == tombstones for entry in logged)
    database.close()
    monkeypatch.undo()
    with open_database(workdir) as reopened:
        assert reopened.transactions.last_recovery.committed == [2, 3]
        assert "deleted_rids" not in (
            reopened.transactions.last_recovery.catalog_payload)
        assert list(reopened.document.nodes) == live


def test_the_fold_drops_only_the_retired_key():
    """``fold_catalog`` ignores ``deleted_rids`` and refuses a record
    with any other key a delta does not have."""
    from repro.errors import WalFormatError
    from repro.storage.catalog import fold_catalog

    base = {"name": "db", "store_pages": [1], "index_chains": {"a": [2]},
            "index_counts": {"a": 1}, "node_count": 1,
            "deleted_rids": [[1, 0]]}
    delta = {"tags": {"b": [[4], 1]}, "store_pages": [3],
             "node_count": 2}
    folded = fold_catalog(base, [delta])
    assert folded == fold_catalog(base, [{**delta,
                                          "deleted_rids": [[3, 1]]}])
    assert folded == {"name": "db", "store_pages": [1, 3],
                      "index_chains": {"a": [2], "b": [4]},
                      "index_counts": {"a": 1, "b": 1},
                      "node_count": 2}
    with pytest.raises(WalFormatError, match="not a catalog delta"):
        fold_catalog(base, [{**delta, "tombstones": []}])
