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

* ``("query", plan, pattern, engine, trace_context, first)`` — run
  *plan* and send two replies: ``("head", rows)``, the root's first
  block of *first* rows, packed, the moment the root emits it (an
  empty array when the shard has no row), then ``("ok", payload)``
  carrying the rest of the run.  *first* only sizes the head:
  ``None`` (what ``execute`` sends) makes the head the shard's whole
  run and the rest empty.  Between root blocks the worker polls the
  pipe: a ``("cancel",)`` stops the run at that block boundary, and
  the payload then holds the rows and counters up to there.  A
  failure is ``("error", type_name, message)`` in place of the reply
  still owed (the head, or the payload).
  ``trace_context`` is ``None`` or a
  :class:`~repro.obs.spans.TraceContext` dict; when present, the
  worker runs the query traced, stamps its span subtree
  with the coordinator's trace id under a per-shard span-id prefix,
  and ships the subtree back serialized (``span.to_dict()`` — counters
  ride as exact ints, never as live metric objects) for the
  coordinator to stitch.
* ``("cancel",)`` while idle → no reply: it was meant for a run whose
  payload had already left.
* ``("ping",)`` → ``("pong", shard_id)``
* ``("stop",)`` → ``("bye",)`` and a clean exit
* ``("exit",)`` → ``os._exit(1)``, no reply — a crash hook for the
  coordinator fault tests

The reply to a query is **columnar**: the shard's result is one run
of start labels in the order the plan produced them, never a row
object — cut in two, the head and the rest.

* ``rows`` — one label array, row-major: row *r*'s label for schema
  column *c* is ``rows[r * width + c]``.  The engine hands its rows
  over packed — start labels, global and unique per node, row-major
  in one :data:`~repro.storage.frames.LABEL_TYPECODE` array per
  block, 4 bytes a label — and the reply is those arrays as they
  come, each checked for order (:func:`pack_run`): nothing is copied
  into another form and nothing is re-ordered, because a plan's
  output is already in document order on its ``ordered_by`` node
  (Sec. 3.1.1), which is the one order the coordinator merges by.
  Pickling an array is a buffer copy out and a buffer copy in; the
  coordinator keeps the runs packed and never allocates per row or
  per label it is not asked for.  The payload's ``rows`` is the run
  after the head.
* ``row_count``, ``width`` — the shape of the whole run, head
  included; ``node_ids`` names the ``width`` schema columns.
* ``wall_seconds`` — the plan's execution: the stream's clock less
  the packing and the head's send; ``cpu_seconds`` — the whole
  answer's CPU time; ``pack_seconds`` — the pack and order check of
  the run; ``head_seconds`` — from receiving the request to sending
  the head; ``reply_bytes`` — the size of the run's packed labels.
* ``counters``, ``page_reads``, ``buffer_hits``, ``buffer_misses``,
  ``span`` — the execution's exact cost-model counters, its I/O
  diagnostics and (when traced) its serialized span subtree.
"""

from __future__ import annotations

import os
import time
from array import array

from repro.engine.tuples import PackedRows
from repro.errors import PlanError
from repro.obs.spans import TraceContext, assign_span_ids
from repro.storage.frames import LABEL_TYPECODE

__all__ = ["worker_main", "pack_run"]


def pack_run(rows: "PackedRows | tuple", key: int,
             after: "int | None" = None) -> array:
    """A block's labels, in the order the plan produced them: the
    engine's own row-major label array, handed on as it is;
    :class:`PlanError` unless they are non-decreasing on column *key*,
    the plan's ``ordered_by`` node, and — when they continue a run
    whose last key is *after* — start at or above it, so that a run
    packed a block at a time is checked across every block boundary
    too.

    The check reads the key column out of the labels with a strided
    slice and compares it with its own ``sorted`` copy — on ordered
    keys a single run detection of n - 1 integer comparisons, the
    cheapest pass over the column measured — so a mis-ordered plan
    fails here, on the worker, in parallel with the other shards, and
    the coordinator's merge never re-checks.
    """
    if not rows:
        return array(LABEL_TYPECODE)
    labels = rows.labels
    keys = labels[key::rows.width].tolist()
    if after is not None:
        keys.insert(0, after)
    if keys != sorted(keys):
        raise PlanError(
            f"plan output is out of order on its key column {key}")
    return labels


def worker_main(shard_id: int, pages_path: str, conn) -> None:
    """Entry point of one shard worker process."""
    # imports deferred below the module guard keep spawn startup lean
    from repro.api import Database
    from repro.storage.disk import FileDisk

    try:
        database = Database.open(FileDisk(pages_path))
    except BaseException as error:  # noqa: BLE001 - report and die
        _send_error(conn, error)
        conn.close()
        return
    conn.send(("ready", shard_id, len(database.document or ())))
    #: a message that arrived while a run was polling for a cancel
    pending = None
    while True:
        if pending is None:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break  # coordinator went away
        else:
            request, pending = pending, None
        kind = request[0]
        if kind == "stop":
            conn.send(("bye",))
            break
        if kind == "ping":
            conn.send(("pong", shard_id))
            continue
        if kind == "exit":
            os._exit(1)
        if kind == "cancel":
            continue  # its run's payload has left already
        if kind != "query":
            conn.send(("error", "ShardError",
                       f"unknown request {request[0]!r}"))
            continue
        try:
            pending = _answer(database, shard_id, conn, *request[1:])
        except Exception as error:  # noqa: BLE001 - stay serving
            _send_error(conn, error)
    database.close()
    conn.close()


def _answer(database, shard_id: int, conn, plan, pattern, engine: str,
            context: "dict | None", first: "int | None"
            ) -> "tuple | None":
    """Run one query and send its two replies (see the module
    docstring).

    Returns the message, other than a cancel, that arrived while the
    run polled between blocks (the request loop handles it next), or
    ``None``.
    """
    received = time.perf_counter()
    trace = (TraceContext.from_dict(context)
             if context is not None else None)
    # CPU time alongside wall time: when workers outnumber cores they
    # time-slice, wall inflates with contention, and CPU time is what
    # a worker would take with a core of its own
    cpu_started = time.process_time()
    stream = database.stream_execute(plan, pattern, engine=engine,
                                     spans=trace is not None)
    width = len(stream.schema)
    key = stream.schema.position(plan.ordered_by)
    interrupt = None
    try:
        blocks = stream.blocks(first)
        # held to the end of the answer: freeing the whole run of an
        # unbounded head belongs after the last send, not before it
        rows = next(blocks, ())
        pack_started = time.perf_counter()
        head = pack_run(rows, key)
        sent = time.perf_counter()
        pack_seconds = sent - pack_started
        head_seconds = sent - received
        conn.send(("head", head))
        # a head the size of the whole run waits on the pipe for the
        # coordinator to read it: that is not the shard's execution
        send_seconds = time.perf_counter() - sent
        run = array(LABEL_TYPECODE)
        after = head[key - width] if head else None
        for block in blocks:
            pack_started = time.perf_counter()
            run += pack_run(block, key, after)
            after = run[key - width]
            pack_seconds += time.perf_counter() - pack_started
            if conn.poll(0):
                message = conn.recv()
                if message[0] != "cancel":
                    interrupt = message
                break
    finally:
        stream.close()  # stops a run cut short; a no-op once read
    cpu_seconds = time.process_time() - cpu_started
    span_payload = None
    if trace is not None:
        # stamp under a per-shard prefix so span ids stay unique
        # across the stitched trace; the coordinator re-parents the
        # subtree root under its shard wrapper span
        assign_span_ids(stream.span, trace.trace_id,
                        trace.parent_span_id, prefix=f"s{shard_id}-")
        span_payload = stream.span.to_dict()
    metrics = stream.metrics
    conn.send(("ok", {
        "shard_id": shard_id,
        "rows": run,
        "row_count": (len(head) + len(run)) // width,
        "width": width,
        "node_ids": stream.schema.node_ids,
        "counters": metrics.counters(),
        "page_reads": metrics.page_reads,
        "buffer_hits": metrics.buffer_hits,
        "buffer_misses": metrics.buffer_misses,
        # the stream's clock ran on through the packing and the head's
        # send; the CPU clock covers the whole answer
        "wall_seconds": metrics.wall_seconds - pack_seconds - send_seconds,
        "cpu_seconds": cpu_seconds,
        "pack_seconds": pack_seconds,
        "head_seconds": head_seconds,
        "reply_bytes": (len(head) + len(run)) * run.itemsize,
        "span": span_payload,
    }))
    return interrupt


def _send_error(conn, error: BaseException) -> None:
    try:
        conn.send(("error", type(error).__name__, str(error)))
    except (OSError, ValueError):  # pragma: no cover - pipe gone
        pass
