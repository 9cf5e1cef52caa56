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
run of start labels in the order the plan produced them, never a row
object.

* ``rows`` — one ``array('q')``, row-major: row *r*'s label for schema
  column *c* is ``rows[r * width + c]``.  The engine's rows *are*
  label rows — tuples of start labels, global and unique per node —
  and the reply is those rows flattened as they come
  (:func:`pack_run`): nothing is extracted, no key is built and
  nothing is re-ordered, because a plan's output is already in
  document order on its ``ordered_by`` node (Sec. 3.1.1), which is
  the one order the coordinator merges by.  ``'q'`` is the one
  typecode: 8 bytes per label, ``8 * width`` bytes per row on the
  pipe, wide enough for any label the write path's gapped numbering
  can hand out.  Pickling an array is a buffer copy out and a buffer
  copy in; the coordinator keeps the runs packed and never allocates
  per row or per label it is not asked for.
* ``row_count``, ``width`` — the shape of ``rows``; ``node_ids`` names
  the ``width`` schema columns.
* ``wall_seconds`` / ``cpu_seconds`` — the plan's execution alone;
  ``pack_seconds`` — the pack and order check of the reply that
  follows it;
  ``reply_bytes`` — the size of ``rows``' buffer.
* ``counters``, ``page_reads``, ``buffer_hits``, ``buffer_misses``,
  ``span`` — the execution's exact cost-model counters, its I/O
  diagnostics and (when traced) its serialized span subtree.
"""

from __future__ import annotations

import os
import time
from array import array
from itertools import chain
from struct import pack
from typing import Sequence

from repro.engine.tuples import LabelRow
from repro.errors import PlanError

__all__ = ["worker_main", "pack_run"]


def pack_run(rows: Sequence[LabelRow], width: int, key: int) -> array:
    """*rows*, in the order the plan produced them, as one row-major
    ``array('q')``; :class:`PlanError` unless they are non-decreasing
    on column *key*, the plan's ``ordered_by`` node.

    The flatten is one C pass: ``struct.pack`` over the unpacked
    labels, the bytes handed to the array as they are.  The check reads
    the key column back out of the packed run with a strided slice and
    compares it with its own ``sorted`` copy — on ordered keys a
    single run detection of n - 1 integer comparisons, the cheapest
    pass over the column measured — so a mis-ordered plan fails here,
    on the worker, in parallel with the other shards, and the
    coordinator's merge never re-checks.  Measured on the 25 712 x 7
    shard result of ``Q.Pers.3.d`` (Pers 2000 x2, in process, median
    of 25 on a 2-vCPU box): 4.7 ms for the pack and the check
    together (the check alone about 0.7 ms), where sorting the rows by
    the full label tuple and flattening them through
    ``array("q", chain.from_iterable(...))`` took 19.9 ms — beside an
    execute of 7.7 ms in the same session.
    """
    run = array("q", pack(f"{len(rows) * width}q",
                          *chain.from_iterable(rows)))
    keys = run[key::width].tolist()
    if keys != sorted(keys):
        raise PlanError(
            f"plan output is out of order on its key column {key}")
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
            # CPU time alongside wall time: when workers outnumber
            # cores they time-slice, wall inflates with contention,
            # and CPU time is what a worker would take with a core of
            # its own
            cpu_seconds = time.process_time() - cpu_started
            pack_started = time.perf_counter()
            node_ids = result.schema.node_ids
            rows = pack_run(result.rows, len(node_ids),
                            result.schema.position(plan.ordered_by))
            pack_seconds = time.perf_counter() - pack_started
        except Exception as error:  # noqa: BLE001 - stay serving
            _send_error(conn, error)
            continue
        span_payload = None
        if trace is not None:
            # stamp under a per-shard prefix so span ids stay unique
            # across the stitched trace; the coordinator re-parents
            # the subtree root under its shard wrapper span
            assign_span_ids(result.span, trace.trace_id,
                            trace.parent_span_id,
                            prefix=f"s{shard_id}-")
            span_payload = result.span.to_dict()
        conn.send(("ok", {
            "shard_id": shard_id,
            "rows": rows,
            "row_count": len(result),
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
