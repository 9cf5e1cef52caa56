"""Shard worker process: one durable shard database, one request loop.

Workers are real processes (``multiprocessing``), not threads — the
GIL caps the thread-pooled :class:`~repro.service.service.QueryService`
at one core of join work, while N shard workers join in parallel.
:func:`worker_main` is a module-level function with picklable
arguments, so it is spawn-start-method safe.

Each worker reopens its shard's ``pages.db`` **read-only in effect**:
queries never dirty pages, so any number of workers can share one
persisted shard directory.  The protocol over the pipe is a tagged
tuple per message:

* ``("query", plan, pattern, engine, trace_context)`` →
  ``("ok", payload)`` or ``("error", type_name, message)``.
  ``trace_context`` is ``None`` or a
  :class:`~repro.obs.spans.TraceContext` dict; when present, the
  worker runs the query traced, stamps its span subtree
  with the coordinator's trace id under a per-shard span-id prefix,
  and ships the subtree back serialized (``span.to_dict()`` — counters
  ride as exact ints, never as live metric objects) for the
  coordinator to stitch.
* ``("ping",)`` → ``("pong", shard_id)``
* ``("stop",)`` → ``("bye",)`` and a clean exit
* ``("exit",)`` → ``os._exit(1)``, no reply — a crash hook for the
  coordinator fault tests

The reply to a query is **columnar**: the shard's whole result is one
sorted run of start labels, never a row object.

* ``rows`` — one ``array('q')``, row-major: row *r*'s label for schema
  column *c* is ``rows[r * width + c]``.  A row is its
  :func:`merge_key` (the coordinator owns the full document and
  rebuilds each region from its start label), and the rows are sorted
  by that key, so the run is in document order.  ``'q'`` is the one
  typecode: 8 bytes per label, ``8 * width`` bytes per row on the
  pipe, wide enough for any label the write path's gapped numbering
  can hand out.  Pickling an array is a buffer copy out and a buffer
  copy in; nothing is allocated per row or per label on either side.
* ``row_count``, ``width`` — the shape of ``rows``; ``node_ids`` names
  the ``width`` schema columns.
* ``wall_seconds`` / ``cpu_seconds`` — the plan's execution alone;
  ``pack_seconds`` — the sort-and-pack of the reply that follows it;
  ``reply_bytes`` — the size of ``rows``' buffer.
* ``counters``, ``page_reads``, ``buffer_hits``, ``buffer_misses``,
  ``span`` — the execution's exact cost-model counters, its I/O
  diagnostics and (when traced) its serialized span subtree.
"""

from __future__ import annotations

import os
import struct
import sys
import time
from array import array
from operator import attrgetter, itemgetter

from repro.engine.tuples import MatchTuple

__all__ = ["worker_main", "merge_key", "pack_sorted_run"]

_start_of = attrgetter("start")


def merge_key(row: MatchTuple) -> tuple[int, ...]:
    """Document-order merge key of one match tuple.

    The tuple of region start labels in schema order.  Start labels
    are global and unique per node, so distinct bindings always have
    distinct keys and merging shard runs by key interleaves them into
    one total document order.
    """
    return tuple(region.start for region in row)


def pack_sorted_run(rows: list[MatchTuple], width: int) -> array:
    """*rows* as one row-major ``array('q')`` sorted by :func:`merge_key`.

    No per-row Python code runs: the start labels are pulled out
    column by column (``attrgetter`` over ``itemgetter``) and each row
    is packed into one fixed-width big-endian record.  Labels are
    non-negative, so records compare bytewise exactly as their merge
    keys compare as tuples, and sorting ``bytes`` is a ``memcmp`` per
    comparison.  Measured on a 25 712 x 7 shard result (Pers 2000 x2,
    ``Q.Pers.3.d``, best of 7): 11.8 ms, against 19.2 ms for sorting
    zipped int tuples and flattening them, and 20.6 ms + 4.6 ms pickle
    for the per-row ``sorted(merge_key(row) for row in rows)``.
    """
    columns = [map(_start_of, map(itemgetter(column), rows))
               for column in range(width)]
    records = sorted(map(struct.Struct(f">{width}q").pack, *columns))
    run = array("q")
    run.frombytes(b"".join(records))
    if sys.byteorder == "little":
        run.byteswap()
    return run


def worker_main(shard_id: int, pages_path: str, conn) -> None:
    """Entry point of one shard worker process."""
    # imports deferred below the module guard keep spawn startup lean
    from repro.api import Database
    from repro.obs.spans import TraceContext, assign_span_ids
    from repro.storage.disk import FileDisk

    try:
        database = Database.open(FileDisk(pages_path))
    except BaseException as error:  # noqa: BLE001 - report and die
        _send_error(conn, error)
        conn.close()
        return
    conn.send(("ready", shard_id, len(database.document or ())))
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break  # coordinator went away
        kind = request[0]
        if kind == "stop":
            conn.send(("bye",))
            break
        if kind == "ping":
            conn.send(("pong", shard_id))
            continue
        if kind == "exit":
            os._exit(1)
        if kind != "query":
            conn.send(("error", "ShardError",
                       f"unknown request {request[0]!r}"))
            continue
        _, plan, pattern, engine, context = request
        trace = (TraceContext.from_dict(context)
                 if context is not None else None)
        cpu_started = time.process_time()
        try:
            result = database.execute(plan, pattern, engine=engine,
                                      spans=trace is not None)
        except BaseException as error:  # noqa: BLE001 - stay serving
            _send_error(conn, error)
            continue
        # CPU time alongside wall time: when workers outnumber cores
        # they time-slice, wall inflates with contention, and CPU time
        # is what a worker would take with a core of its own
        cpu_seconds = time.process_time() - cpu_started
        span_payload = None
        if trace is not None:
            # stamp under a per-shard prefix so span ids stay unique
            # across the stitched trace; the coordinator re-parents
            # the subtree root under its shard wrapper span
            assign_span_ids(result.span, trace.trace_id,
                            trace.parent_span_id,
                            prefix=f"s{shard_id}-")
            span_payload = result.span.to_dict()
        pack_started = time.perf_counter()
        node_ids = result.schema.node_ids
        rows = pack_sorted_run(result.tuples, len(node_ids))
        pack_seconds = time.perf_counter() - pack_started
        conn.send(("ok", {
            "shard_id": shard_id,
            "rows": rows,
            "row_count": len(result.tuples),
            "width": len(node_ids),
            "node_ids": node_ids,
            "counters": result.metrics.counters(),
            "page_reads": result.metrics.page_reads,
            "buffer_hits": result.metrics.buffer_hits,
            "buffer_misses": result.metrics.buffer_misses,
            "wall_seconds": result.metrics.wall_seconds,
            "cpu_seconds": cpu_seconds,
            "pack_seconds": pack_seconds,
            "reply_bytes": len(rows) * rows.itemsize,
            "span": span_payload,
        }))
    database.close()
    conn.close()


def _send_error(conn, error: BaseException) -> None:
    try:
        conn.send(("error", type(error).__name__, str(error)))
    except (OSError, ValueError):  # pragma: no cover - pipe gone
        pass
