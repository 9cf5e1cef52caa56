"""ARIES-lite redo-on-open: replay committed transactions, drop torn tails.

The write path never overwrites a page referenced by the last durable
catalog (copy-on-write commits, see :mod:`repro.txn.mutate`), so
recovery needs only physical *redo* — no undo pass:

1. Scan the log front-to-back, buffering each transaction's PAGE and
   CATALOG records under its txn id.
2. On COMMIT, replay that transaction's page images into the pages
   file (idempotent: rewriting a page with the same image is a no-op)
   and queue its CATALOG record, a catalog *delta*.
3. A transaction with no COMMIT by end-of-log — including everything
   after a torn frame — never happened: its pages were unreferenced
   scratch space, so discarding the records suffices.

The queued deltas are then folded onto the page-0 catalog written by
the last checkpoint, in commit order
(:func:`~repro.storage.catalog.fold_catalog`).  Every delta field is
idempotent, so a log whose checkpoint already holds some of its
commits — a crash inside ``checkpoint()``, after the pages file was
re-anchored and before the log was cut — folds to the same catalog.
The folded catalog tells the opener which pages hold the element store
and posting chains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.txn import wal as _wal
from repro.txn.wal import WalRecord, WriteAheadLog
from repro.storage.buffer import BufferPool
from repro.storage.catalog import fold_catalog, read_catalog
from repro.storage.disk import DiskManager
from repro.storage.pages import Page


@dataclass
class RecoveryResult:
    """Outcome of one redo pass, surfaced via obs metrics and the CLI."""

    #: the full catalog: page 0's with every committed delta folded in,
    #: or ``None`` when the log held no committed CATALOG (use page 0's).
    catalog_payload: dict | None = None
    #: txn ids replayed, in commit order.
    committed: list[int] = field(default_factory=list)
    #: txn ids begun but never committed (work discarded).
    discarded: list[int] = field(default_factory=list)
    #: byte offset of the torn tail, or ``None`` if the log was intact.
    torn_offset: int | None = None
    #: number of page images written back during redo.
    replayed_pages: int = 0
    #: log bytes scanned (intact prefix).
    scanned_bytes: int = 0
    #: wall seconds the redo pass took (surfaced as a registry gauge).
    seconds: float = 0.0

    @property
    def clean(self) -> bool:
        """True when the log was empty or fully intact with no dangling txn."""
        return self.torn_offset is None and not self.discarded


def recover(disk: DiskManager, wal: WriteAheadLog) -> RecoveryResult:
    """Redo committed transactions from *wal* into *disk*.

    Safe to run on a clean log (it replays already-applied images over
    themselves) and on an empty one (no-op).  A torn tail is cut off
    the log before returning — appends always go to the file end, so
    leaving a partial frame in place would strand every later commit
    behind it, unreachable to the next replay.  A committed CATALOG
    record that is not a delta raises
    :class:`~repro.errors.WalFormatError`.
    """
    started = time.perf_counter()
    result = RecoveryResult()
    # txn id -> buffered (page records, catalog records)
    in_flight: dict[int, tuple[list[WalRecord], list[WalRecord]]] = {}
    deltas: list[dict] = []
    for record in wal.replay():
        result.scanned_bytes = record.end_offset
        if record.type == _wal.BEGIN:
            in_flight[record.txn_id] = ([], [])
        elif record.type == _wal.PAGE:
            pages, _ = in_flight.setdefault(record.txn_id, ([], []))
            pages.append(record)
        elif record.type == _wal.CATALOG:
            _, catalogs = in_flight.setdefault(record.txn_id, ([], []))
            catalogs.append(record)
        elif record.type == _wal.COMMIT:
            pages, catalogs = in_flight.pop(record.txn_id, ([], []))
            for page_record in pages:
                page_id = page_record.page_id
                disk.extend_to(page_id + 1)
                disk.write_page(
                    Page(page_id, bytearray(page_record.page_image)))
                result.replayed_pages += 1
            deltas.extend(catalog.json_payload() for catalog in catalogs)
            result.committed.append(record.txn_id)
        # CHECKPOINT records carry no redo work: by the time one is
        # written the pages file is already durable and re-anchored.
    result.torn_offset = wal.torn_offset
    result.discarded = sorted(in_flight)
    if result.replayed_pages:
        disk.sync()
    if deltas:
        result.catalog_payload = fold_catalog(
            read_catalog(BufferPool(disk, capacity=1)), deltas)
    if result.torn_offset is not None:
        wal.truncate(result.torn_offset)
    result.seconds = time.perf_counter() - started
    return result
