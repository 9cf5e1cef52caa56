"""Transactional write path: WAL, recovery, incremental mutation.

This package turns the load-once database into one that serves heavy
mutable traffic:

* :mod:`repro.txn.wal` — an append-only, CRC-framed write-ahead log of
  page-granularity redo records, fsync'd on commit.
* :mod:`repro.txn.recovery` — ARIES-lite redo-on-open: replay committed
  transactions, discard torn tails.
* :mod:`repro.txn.labels` — gapped region labels, so subtree inserts
  rarely renumber existing nodes (and relabel locally when they must).
* :mod:`repro.txn.mutate` — the document mutation API
  (``insert_subtree`` / ``delete_subtree`` / ``append_document``) with
  copy-on-write storage maintenance and snapshot-isolated publication.
* :mod:`repro.txn.db` — the durable directory layout
  (``pages.db`` + ``wal.log``) behind ``create_database`` /
  ``open_database``.
"""

from repro.txn.db import create_database, open_database
from repro.txn.mutate import Transaction, TransactionManager
from repro.txn.recovery import RecoveryResult, recover
from repro.txn.wal import WalRecord, WalStats, WriteAheadLog

__all__ = [
    "create_database",
    "open_database",
    "Transaction",
    "TransactionManager",
    "RecoveryResult",
    "recover",
    "WalRecord",
    "WalStats",
    "WriteAheadLog",
]
