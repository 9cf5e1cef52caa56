"""Durable database directory: ``pages.db`` + ``wal.log``.

:func:`create_database` lays the directory out and persists the
initial document; :func:`open_database` runs crash recovery before
handing the database back, so a directory left behind by a killed
process opens to exactly the committed prefix of its history:

* data pages come from ``pages.db`` (whatever mix of checkpointed and
  incidentally evicted pages the crash left),
* committed transactions found in ``wal.log`` are replayed over them
  (physical redo is idempotent, so double-applied pages are harmless),
* the committed CATALOG records — catalog deltas — are folded onto the
  page-0 catalog in commit order,
* a torn log tail and any unfinished transaction are discarded.
"""

from __future__ import annotations

import os

from repro.api import Database
from repro.errors import TransactionError
from repro.document.document import XmlDocument
from repro.document.parser import parse_xml
from repro.storage.disk import FileDisk
from repro.txn.mutate import TransactionManager
from repro.txn.recovery import recover
from repro.txn.wal import WriteAheadLog

PAGES_FILE = "pages.db"
WAL_FILE = "wal.log"


def create_database(path: str | os.PathLike,
                    document: XmlDocument | None = None,
                    xml: str | None = None,
                    name: str = "db",
                    **kwargs: object) -> Database:
    """Create a durable database directory holding *document*.

    Exactly one of *document* / *xml* must be given.  The document is
    stored, indexed, and checkpointed (so the directory is immediately
    reopenable), and the returned database carries a transaction
    manager logging to ``wal.log``.
    """
    if (document is None) == (xml is None):
        raise TransactionError(
            "create_database needs exactly one of document= or xml=")
    if xml is not None:
        document = parse_xml(xml, name=name)
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    pages_path = os.path.join(path, PAGES_FILE)
    if os.path.exists(pages_path):
        raise TransactionError(
            f"{pages_path} already exists; use open_database")
    disk = FileDisk(pages_path)
    database = Database.from_document(document, disk=disk, **kwargs)
    database.persist()
    wal = WriteAheadLog(os.path.join(path, WAL_FILE))
    database._txn_manager = TransactionManager(database, wal)
    return database


def open_database(path: str | os.PathLike,
                  **kwargs: object) -> Database:
    """Reopen a database directory, running crash recovery first.

    The :class:`~repro.txn.recovery.RecoveryResult` is available as
    ``database.transactions.last_recovery``.
    """
    path = os.fspath(path)
    pages_path = os.path.join(path, PAGES_FILE)
    if not os.path.exists(pages_path):
        raise TransactionError(f"no database at {path} ({PAGES_FILE} "
                               "missing)")
    disk = FileDisk(pages_path)
    wal = WriteAheadLog(os.path.join(path, WAL_FILE))
    result = recover(disk, wal)
    database = Database.open(disk, catalog=result.catalog_payload,
                             **kwargs)
    manager = TransactionManager(
        database, wal,
        next_txn_id=max(result.committed, default=0) + 1)
    manager.last_recovery = result
    manager.metrics.recovery_seconds += result.seconds
    database._txn_manager = manager
    return database
