"""Persistent query log: one JSONL record per executed query.

PR 3's spans and EXPLAIN ANALYZE die with the process; the query log
makes them durable.  Every execution read to its end on a query
target with a log attached — a :class:`~repro.api.Database` or a shard
fleet, whose coordinator writes the record — appends one structured
record (``QueryTarget._finish_run`` is the one writer): pattern
signature, algorithm, engine, plan digest, run-level counters, wall
time and statistics epoch, plus per-operator estimated-vs-actual
cardinalities and exact cost-counter shares whenever the run was
traced.  Those records are the raw
material for the two consumers that close the feedback loop:

* :mod:`repro.obs.calibrate` fits :class:`~repro.core.cost.CostFactors`
  from the traced counter/wall-time pairs;
* :mod:`repro.obs.audit` replays logged patterns through the optimizer
  and flags plan flips and Q-error drift.

Design points:

* **Asynchronous writes** — :meth:`QueryLog.record` enqueues (at most
  :data:`QUEUE_CAPACITY` records wait); a daemon writer thread
  serialises and appends, so logging never sits on the query hot path.
  A full queue drops the record instead of blocking a query — warned
  once, counted always (``QueryLog.dropped`` and the
  ``repro_querylog_dropped_total`` counter).
* **Size-bounded** — the active file rotates to ``<path>.1`` …
  ``<path>.<backups>`` once it exceeds ``max_bytes``; the oldest
  rotation is deleted, so total disk use is bounded by
  ``(backups + 1) * max_bytes`` (plus one record of slack).  The
  reader takes every rotation there is, however many were kept.
* **No sampler of its own** — whether a run is traced is decided
  before it starts (``QueryTarget._trace_for``, fed by the query
  service's 1-in-``trace_sample`` clock); the log records what it is
  handed, with per-operator detail whenever that run was traced.
* **In-memory mode** — ``path=None`` keeps the newest
  :data:`MEMORY_CAPACITY` records in a deque: no files, no writer
  thread.  Used by the CLI's self-contained ``calibrate`` mode and by
  tests.

The reader (:func:`read_query_log`) tolerates torn or corrupt lines —
malformed lines are skipped and counted, never fatal — because a
rotation or a crash mid-append must not poison later analysis.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from hashlib import sha1
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.core.pattern import QueryPattern, canonical_signature
from repro.core.plans import PhysicalPlan, canonical_plan_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cost import CostFactors
    from repro.engine.executor import (ExecutionResult,
                                       StreamingExecution)

__all__ = ["QueryLog", "QueryLogScan", "build_record", "read_query_log",
           "signature_digest"]

#: sentinel shutting the writer thread down.
_STOP = object()

#: records an in-memory log keeps (newest win).
MEMORY_CAPACITY = 4096

#: records a file log's writer queue holds before it drops.
QUEUE_CAPACITY = 4096


def signature_digest(pattern: QueryPattern) -> str:
    """Short stable digest of a pattern's canonical signature.

    Two patterns share a digest iff they are isomorphic (same tags,
    predicates, axes, shape and order-by target) — the same identity
    the plan cache keys on — so the log can group repeats of one
    logical query across sessions and node renumberings.
    """
    return sha1(repr(canonical_signature(pattern))
                .encode("utf-8")).hexdigest()[:16]


def build_record(pattern: QueryPattern, plan: PhysicalPlan,
                 execution: "ExecutionResult | StreamingExecution", *,
                 algorithm: str = "", engine: str = "",
                 statistics_epoch: int = 0,
                 factors: "CostFactors | None" = None,
                 query: str | None = None,
                 timestamp: float | None = None,
                 trace_id: str = "") -> dict[str, object]:
    """One JSON-able log record for a finished execution — a buffered
    result, or a stream read to its end (``rows`` is what it produced).

    When the execution was traced (``execution.span`` is set) the
    record carries an ``operators`` list — the tree's operator spans
    flattened pre-order, one
    :meth:`~repro.obs.spans.Span.operator_record` each: the optimizer's
    estimates, the measured rows/seconds, and the operator's exact
    share of every cost-model counter (the calibration inputs); a
    fleet's stage spans carry no counters and are left out — plus the
    trace id, so log analysis (:mod:`repro.obs.audit`) can join a
    logged plan back to its retained trace.
    """
    from repro.xpath.render import pattern_to_xpath

    metrics = execution.metrics
    record: dict[str, object] = {
        "ts": time.time() if timestamp is None else timestamp,
        "query": pattern_to_xpath(pattern) if query is None else query,
        "signature": signature_digest(pattern),
        "algorithm": algorithm,
        "engine": engine,
        "plan": plan.signature(),
        "plan_digest": canonical_plan_digest(plan, pattern),
        "estimated_cost": plan.estimated_cost,
        "actual_cost": metrics.simulated_cost(),
        "wall_seconds": metrics.wall_seconds,
        "rows": (execution.produced if hasattr(execution, "produced")
                 else len(execution)),
        "statistics_epoch": statistics_epoch,
        "factors": factors.to_dict() if factors is not None else None,
        "counters": metrics.counters(),
    }
    if not trace_id and execution.span is not None:
        trace_id = execution.span.trace_id
    if trace_id:
        record["trace_id"] = trace_id
    if execution.span is not None:
        record["operators"] = [span.operator_record()
                               for span in execution.span.walk()
                               if span.metrics is not None]
    return record


class QueryLog:
    """Durable, size-bounded JSONL log of executed queries.

    ``path=None`` switches to in-memory mode (bounded deque, no
    files).  File mode appends from a daemon writer thread; call
    :meth:`flush` before reading the file back, :meth:`close` when
    done (both idempotent, and ``QueryLog`` works as a context
    manager).
    """

    def __init__(self, path: "str | os.PathLike[str] | None" = None, *,
                 max_bytes: int = 4 << 20, backups: int = 3) -> None:
        if max_bytes < 1:
            raise ReproError("query log max_bytes must be at least 1")
        if backups < 1:
            raise ReproError("query log backups must be at least 1")
        self.path = os.fspath(path) if path is not None else None
        self.max_bytes = max_bytes
        self.backups = backups
        self._mutex = threading.Lock()
        self._recorded = 0
        self._dropped = 0
        self._drops_exported = 0
        self._written = 0
        self._closed = False
        self._memory: "deque[dict[str, object]] | None" = None
        self._queue: "queue.Queue[object] | None" = None
        self._writer: threading.Thread | None = None
        self._handle = None
        if self.path is None:
            self._memory = deque(maxlen=MEMORY_CAPACITY)
        else:
            self._queue = queue.Queue(maxsize=QUEUE_CAPACITY)
            self._writer = threading.Thread(
                target=self._drain, name="repro-querylog", daemon=True)
            self._writer.start()

    # -- recording -------------------------------------------------------

    def record(self, record: dict[str, object]) -> None:
        """Append *record* (non-blocking; drops and counts on a full
        queue rather than stalling the query that produced it)."""
        with self._mutex:
            if self._closed:
                return
            self._recorded += 1
            if self._memory is not None:
                self._memory.append(record)
                return
        assert self._queue is not None
        try:
            self._queue.put_nowait(record)
        except queue.Full:
            self._count_drop("the writer queue is full")

    def _count_drop(self, reason: str) -> None:
        """Count a lost record; warn once per log, never per record.

        Drops stay non-fatal and non-blocking (the whole point of the
        async writer), but they must not be *silent*: the first one
        raises a ``RuntimeWarning`` and the running total is exported
        as ``repro_querylog_dropped_total`` by :meth:`collect_gauges`.
        """
        with self._mutex:
            self._dropped += 1
            first = self._dropped == 1
        if first:
            warnings.warn(
                f"query log is dropping records ({reason}); further "
                f"drops are counted on QueryLog.dropped and the "
                f"repro_querylog_dropped_total metric without "
                f"warning again", RuntimeWarning, stacklevel=3)

    def collect_gauges(self, registry) -> None:
        """Add the drops not yet exported to the registry's
        ``repro_querylog_dropped_total`` counter — a delta mirror, so
        repeated exports never double-count."""
        with self._mutex:
            delta = self._dropped - self._drops_exported
            self._drops_exported = self._dropped
        if delta > 0:
            registry.counter("repro_querylog_dropped_total").inc(delta)

    # -- writer thread ---------------------------------------------------

    def _drain(self) -> None:
        assert self._queue is not None
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                try:
                    self._append(item)  # type: ignore[arg-type]
                except OSError as error:
                    self._count_drop(f"append failed: {error}")
            finally:
                self._queue.task_done()

    def _append(self, record: dict[str, object]) -> None:
        assert self.path is not None
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        with self._mutex:
            self._written += 1
        if self._handle.tell() >= self.max_bytes:
            self._rotate()

    def _rotate(self) -> None:
        """``path`` -> ``path.1`` -> … -> ``path.backups`` (dropped)."""
        assert self.path is not None
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        oldest = f"{self.path}.{self.backups}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.backups - 1, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{index + 1}")
        if os.path.exists(self.path):
            os.replace(self.path, f"{self.path}.1")

    # -- lifecycle -------------------------------------------------------

    def flush(self) -> None:
        """Block until every record handed in so far is on disk."""
        if self._queue is not None:
            self._queue.join()

    def close(self) -> None:
        """Flush, stop the writer thread and close the file."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
        if self._queue is not None:
            self._queue.join()
            self._queue.put(_STOP)
            assert self._writer is not None
            self._writer.join(timeout=5.0)
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "QueryLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reading ---------------------------------------------------------

    def records(self) -> list[dict[str, object]]:
        """Every retained record, oldest first.

        In-memory mode snapshots the deque; file mode flushes pending
        writes and reads the files back (rotations included).
        """
        if self._memory is not None:
            with self._mutex:
                return list(self._memory)
        self.flush()
        assert self.path is not None
        return read_query_log(self.path).records

    # -- counters --------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Records ever handed to :meth:`record`."""
        with self._mutex:
            return self._recorded

    @property
    def dropped(self) -> int:
        """Records lost to a full queue or a write error."""
        with self._mutex:
            return self._dropped

    @property
    def written(self) -> int:
        """Records the writer thread has persisted (file mode)."""
        with self._mutex:
            return self._written


@dataclass
class QueryLogScan:
    """Result of reading a query log from disk.

    ``skipped`` counts malformed lines (torn writes, corruption) that
    were dropped; ``files`` lists the files read, oldest first.
    """

    records: list[dict[str, object]] = field(default_factory=list)
    skipped: int = 0
    files: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


def read_query_log(path: "str | os.PathLike[str]") -> QueryLogScan:
    """Read a JSONL query log back, oldest record first.

    Rotated generations — every contiguous ``path.1``, ``path.2``, …
    that exists, however many backups the writer kept — are read
    oldest first, before the active file, so the stream is
    chronological.  Lines that are not
    valid JSON objects are skipped and counted on
    :attr:`QueryLogScan.skipped` — a crash mid-append must not make
    the whole log unreadable.
    """
    path = os.fspath(path)
    candidates = [path]
    while os.path.exists(f"{path}.{len(candidates)}"):
        candidates.append(f"{path}.{len(candidates)}")
    scan = QueryLogScan()
    for name in reversed(candidates):
        if not os.path.exists(name):
            continue
        scan.files.append(name)
        with open(name, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    scan.skipped += 1
                    continue
                if not isinstance(record, dict):
                    scan.skipped += 1
                    continue
                scan.records.append(record)
    return scan
