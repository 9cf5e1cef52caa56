"""Append-only, CRC-framed write-ahead log of page redo records.

Every frame is ``magic | type | payload-length | crc32(payload) |
payload``.  A transaction appends BEGIN, one PAGE record per page image
it produced, a CATALOG record carrying its catalog *delta* (what it
changed of the root catalog, :func:`repro.storage.catalog.
catalog_delta` — never the whole catalog), and finally COMMIT — at
which point the log is flushed and fsync'd, making the commit durable
*before* any data page reaches the pages file.  Recovery
(:mod:`repro.txn.recovery`) replays committed transactions forward,
folding their deltas onto the page-0 catalog, and discards any torn
tail: a frame whose header, payload, or checksum is incomplete marks
the crash point, and everything from there on is ignored and
truncated away.

A CHECKPOINT record is appended after the pages file itself has been
flushed, fsync'd, and re-anchored (catalog on page 0); the log can then
be truncated to empty, bounding recovery work.

With ``path=None`` the log lives in a :class:`io.BytesIO` — used by the
in-memory engine and by the crash-injection tests, which snapshot the
buffer and truncate it at arbitrary offsets to simulate torn writes.
"""

from __future__ import annotations

import io
import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import StorageError
from repro.obs.registry import BucketRecorder
from repro.storage.disk import PAGE_SIZE

_MAGIC = b"WL"
# frame header: magic | record type | payload length | payload crc32
_HEADER = struct.Struct("<2sBII")
_TXN = struct.Struct("<Q")
_TXN_PAGE = struct.Struct("<QI")

BEGIN = 1
PAGE = 2
CATALOG = 3
COMMIT = 4
CHECKPOINT = 5

_RECORD_NAMES = {
    BEGIN: "BEGIN",
    PAGE: "PAGE",
    CATALOG: "CATALOG",
    COMMIT: "COMMIT",
    CHECKPOINT: "CHECKPOINT",
}


@dataclass(frozen=True)
class WalRecord:
    """One decoded log frame.

    ``offset`` / ``end_offset`` delimit the full frame (header
    included) in the log; the crash-injection harness truncates at
    these boundaries to simulate a crash between any two writes.
    """

    type: int
    payload: bytes
    offset: int
    end_offset: int

    @property
    def type_name(self) -> str:
        return _RECORD_NAMES.get(self.type, f"UNKNOWN({self.type})")

    @property
    def txn_id(self) -> int | None:
        if self.type in (BEGIN, PAGE, CATALOG, COMMIT):
            return _TXN.unpack_from(self.payload)[0]
        return None

    @property
    def page_id(self) -> int | None:
        if self.type == PAGE:
            return _TXN_PAGE.unpack_from(self.payload)[1]
        return None

    @property
    def page_image(self) -> bytes | None:
        if self.type == PAGE:
            return self.payload[_TXN_PAGE.size:]
        return None

    def json_payload(self) -> Any:
        """Decode the JSON body of a CATALOG or CHECKPOINT record."""
        if self.type == CATALOG:
            return json.loads(self.payload[_TXN.size:].decode("utf-8"))
        if self.type == CHECKPOINT:
            return json.loads(self.payload.decode("utf-8"))
        raise StorageError(
            f"record type {self.type_name} carries no JSON payload")


#: fsync-latency bucket bounds (seconds): sub-millisecond SSD syncs
#: through pathological multi-second stalls.
FSYNC_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5)


@dataclass
class WalStats:
    """Lifetime counters of one log handle (reported via obs gauges).

    ``sync_seconds`` / ``last_sync_seconds`` time the fsync calls (the
    commit durability point — the write path's dominant latency), and
    ``fsync_latency`` accumulates the same observations into
    Prometheus-shaped cumulative buckets for the service collector to
    mirror into a registry histogram.
    """

    records_written: int = 0
    bytes_written: int = 0
    syncs: int = 0
    commits: int = 0
    checkpoints: int = 0
    truncations: int = 0
    sync_seconds: float = 0.0
    last_sync_seconds: float = 0.0
    records_by_type: dict = field(default_factory=dict)
    fsync_latency: BucketRecorder = field(
        default_factory=lambda: BucketRecorder(FSYNC_BUCKETS))

    def _count(self, record_type: int, size: int) -> None:
        self.records_written += 1
        self.bytes_written += size
        name = _RECORD_NAMES.get(record_type, str(record_type))
        self.records_by_type[name] = self.records_by_type.get(name, 0) + 1

    def _time_sync(self, seconds: float) -> None:
        self.syncs += 1
        self.sync_seconds += seconds
        self.last_sync_seconds = seconds
        self.fsync_latency.observe(seconds)


class WriteAheadLog:
    """Append-only redo log with torn-tail-tolerant replay."""

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self._path = os.fspath(path) if path is not None else None
        if self._path is None:
            self._file: io.IOBase = io.BytesIO()
        else:
            # append-preserving open: recovery needs the existing tail
            mode = "r+b" if os.path.exists(self._path) else "w+b"
            self._file = open(self._path, mode)
        self._file.seek(0, os.SEEK_END)
        self._closed = False
        self.stats = WalStats()

    # -- plumbing ----------------------------------------------------------

    @property
    def path(self) -> str | None:
        return self._path

    @property
    def size(self) -> int:
        self._check_open()
        return self._file.seek(0, os.SEEK_END)

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("write-ahead log is closed")

    def _append(self, record_type: int, payload: bytes) -> int:
        self._check_open()
        frame = _HEADER.pack(_MAGIC, record_type, len(payload),
                             zlib.crc32(payload)) + payload
        offset = self._file.seek(0, os.SEEK_END)
        self._file.write(frame)
        self.stats._count(record_type, len(frame))
        return offset

    def sync(self) -> None:
        """Flush and fsync the log (the commit durability point)."""
        self._check_open()
        started = time.perf_counter()
        self._file.flush()
        if self._path is not None:
            os.fsync(self._file.fileno())
        self.stats._time_sync(time.perf_counter() - started)

    def close(self) -> None:
        if not self._closed:
            self._file.close()
            self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- record appenders --------------------------------------------------

    def append_begin(self, txn_id: int) -> int:
        return self._append(BEGIN, _TXN.pack(txn_id))

    def append_page(self, txn_id: int, page_id: int, image: bytes) -> int:
        if len(image) != PAGE_SIZE:
            raise StorageError(
                f"page image must be exactly {PAGE_SIZE} bytes, "
                f"got {len(image)}")
        return self._append(PAGE, _TXN_PAGE.pack(txn_id, page_id) + image)

    def append_catalog(self, txn_id: int, payload: dict) -> int:
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return self._append(CATALOG, _TXN.pack(txn_id) + body)

    def append_commit(self, txn_id: int) -> int:
        """Append COMMIT and fsync — the durability point."""
        offset = self._append(COMMIT, _TXN.pack(txn_id))
        self.sync()
        self.stats.commits += 1
        return offset

    def append_checkpoint(self, payload: dict) -> int:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        offset = self._append(CHECKPOINT, body)
        self.sync()
        self.stats.checkpoints += 1
        return offset

    # -- replay ------------------------------------------------------------

    def replay(self) -> Iterator[WalRecord]:
        """Yield every intact record in log order, stopping at a torn tail.

        A short header, short payload, bad magic, unknown type, or CRC
        mismatch all mark the crash point: replay ends there without
        raising, and :attr:`torn_offset` records where the valid prefix
        ends (``None`` when the whole log was intact).
        """
        self._check_open()
        self.torn_offset: int | None = None
        end = self._file.seek(0, os.SEEK_END)
        offset = 0
        while offset < end:
            self._file.seek(offset)
            header = self._file.read(_HEADER.size)
            if len(header) < _HEADER.size:
                self.torn_offset = offset
                return
            magic, record_type, length, crc = _HEADER.unpack(header)
            if magic != _MAGIC or record_type not in _RECORD_NAMES:
                self.torn_offset = offset
                return
            payload = self._file.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                self.torn_offset = offset
                return
            next_offset = offset + _HEADER.size + length
            yield WalRecord(record_type, payload, offset, next_offset)
            offset = next_offset
        self.torn_offset = None

    def record_boundaries(self) -> list[int]:
        """Offsets of every intact frame boundary (crash-test probe points).

        Returns ``[0, end_of_record_1, end_of_record_2, ...]`` — every
        offset at which truncating the log is equivalent to a crash
        exactly between two record writes.
        """
        boundaries = [0]
        for record in self.replay():
            boundaries.append(record.end_offset)
        return boundaries

    # -- maintenance -------------------------------------------------------

    def truncate(self, size: int = 0) -> None:
        """Cut the log to *size* bytes (0 after a checkpoint)."""
        self._check_open()
        self._file.seek(size)
        self._file.truncate(size)
        self._file.flush()
        if self._path is not None:
            os.fsync(self._file.fileno())
        self.stats.truncations += 1

    def raw_bytes(self) -> bytes:
        """The entire log image (crash-injection snapshot helper)."""
        self._check_open()
        self._file.seek(0)
        return self._file.read()

    def restore_bytes(self, image: bytes) -> None:
        """Replace the log contents wholesale (crash-injection helper)."""
        self._check_open()
        self._file.seek(0)
        self._file.truncate(0)
        self._file.write(image)
        self._file.flush()
