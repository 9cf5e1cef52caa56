"""Worker-pool coordinator: plan once, fan out, gather, merge.

:class:`ShardWorkerPool` owns one process per shard.  The pool's only
query entry point, :meth:`ShardWorkerPool.scatter`, sends the *same*
physical plan to every worker and hands back a :class:`GatherTicket`
that collects that query's replies — the plan-once/fan-out protocol:
because shards share the global label space and the plan was costed
against the whole document, the coordinator's single optimized plan
is valid verbatim on every shard.  Every worker answers a query the
same way, a head then its rest (:mod:`repro.shard.worker` has the
protocol): a ticket hands over every shard's head as soon as every
worker has sent one (``heads()``), and every terminal payload once
every worker has finished (``payloads()``).

One owner for the pipes: a daemon I/O thread per pool is the only
code that sends on or receives from a worker pipe.  Callers put a
request on a ``queue.SimpleQueue`` — its ``put`` is reentrant, so a
stream's finish hook run by the cyclic garbage collector may put one
anywhere — and wake the thread, which ``wait``s on every worker
connection and sentinel and on its wake-up pipe.  A shard is sent its
next message only after its terminal reply to the one before, and each
reply is filed on the ticket the shard is answering, so a worker never
sees a query mid-run and a cancel needs no query id.  Callers wait on
the pool's condition, never on a pipe: a stream that is slow, left
unread or never closed holds up nothing but its own ticket.

Failure semantics: a worker that dies (crash, kill, broken pipe) shows
up at once — its sentinel fires, its pipe ends — and a wait longer
than the pool's ``timeout`` gives up; either is a typed
:class:`~repro.errors.ShardError`, raised once the pool has torn
itself down (every worker stopped and joined, or terminated), so
callers never hang on a half-dead pool and never leak processes.  A
worker-side *query* error (the worker stays alive) is re-raised under
its original :mod:`repro.errors` type when possible, once every reply
the query is owed has been filed — the other workers told to cancel
first.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from array import array
from collections import deque
from collections.abc import Callable, Sequence
from heapq import merge
from itertools import chain, groupby
from multiprocessing.connection import wait
from operator import itemgetter
from queue import SimpleQueue
from repro import errors
from repro.errors import ReproError, ShardError
from repro.shard.worker import worker_main
from repro.storage.frames import LABEL_TYPECODE

__all__ = ["GatherTicket", "ShardWorkerPool", "merge_packed_runs"]

#: seconds one wait on the pool may take before the workers are
#: declared unresponsive (generous: workers answer in milliseconds).
DEFAULT_TIMEOUT = 60.0


def merge_packed_runs(runs: list[array], width: int, key: int) -> array:
    """The shards' packed runs as one row-major array of start labels:
    exactly the rows a single node returns for the same plan, in the
    same order and in the same form, a
    :data:`~repro.storage.frames.LABEL_TYPECODE` array.

    *runs* are the workers' replies (see :mod:`repro.shard.worker`):
    label arrays of that one typecode, row-major, *width* labels per
    row, in shard order, each in the
    order the plan produced it — non-decreasing on column *key*, the
    plan's ``ordered_by`` node, which the worker has checked.  So the
    merge is by that one column:

    * **Concatenate** when every non-empty run's last key is ``<=`` the
      next run's first key — one integer comparison per boundary, and
      one buffer copy per run.  Label-range partitioning is why this
      is the rule: shard *i* owns a closed label range below shard
      *i + 1*'s, and a row binds, besides the replicated root, only
      nodes its shard owns, so keys can only tie across a boundary
      when the key column is bound to the root — and tied rows stay in
      shard order, which is label order on every other column.  The
      one duplicate a fleet can produce, a row that binds *only* the
      root (every shard emits it, e.g. ``//company``), then sits on
      both sides of a boundary: the later copy is dropped.
    * **Otherwise** (a key column that binds the root in a later
      shard's rows but an owned node in an earlier one's: the root's
      tag recurring below it) the runs, re-cut into rows, go through a
      ``heapq.merge`` keyed on the column — stable, so ties keep shard
      order — with adjacent duplicates collapsed: only root-only rows
      can duplicate, and identical rows tie, so they emerge adjacent.
    """
    runs = [run for run in runs if run]
    merged = array(LABEL_TYPECODE)
    if all(earlier[key - width] <= later[key]
           for earlier, later in zip(runs, runs[1:])):
        for run in runs:
            merged.extend(run[width:] if merged[-width:] == run[:width]
                          else run)
    else:
        rows = merge(*[zip(*[iter(run)] * width) for run in runs],
                     key=itemgetter(key))
        merged.extend(chain.from_iterable(
            map(itemgetter(0), groupby(rows))))
    return merged


class GatherTicket:
    """One message sent to the shards, and their replies to it, filed
    by the pool's I/O thread.

    A query's ticket (:meth:`ShardWorkerPool.scatter`) expects a head,
    then an ``ok``, from every shard: :meth:`heads` waits for every
    shard's head and hands them over — the ticket keeps none — and
    :meth:`payloads` for every shard's terminal payload; either raises
    a worker's error under its own type.  *turns* are the replies
    expected (``("pong",)`` for a ping; none for a crash).
    :attr:`phases` are this query's own ``scatter`` seconds, its sends,
    and ``gather`` seconds, from the end of its scatter to its last
    reply filed.  *on_payloads* is called once, on the I/O thread,
    with every shard's payload — never for a query that failed.
    """

    def __init__(self, pool: "ShardWorkerPool", message: "tuple | None",
                 on_payloads: "Callable[[list[dict]], None] | None"
                 = None, turns: tuple = ("head", "ok")) -> None:
        self.phases = {"scatter": 0.0, "gather": 0.0}
        self._pool = pool
        self._message = message
        self._turns = turns
        self._on_payloads = on_payloads
        #: the heads filed, until :meth:`heads` hands them over
        self._heads: list[array | None] | None = [None] * pool.shards
        #: per shard, the replies filed, and the terminal one
        self._filed = [0] * pool.shards
        self._replies: list[tuple | None] = [
            None if turns else () for _ in range(pool.shards)]
        #: the reader wants the rest of the run no more
        self._cancel = False
        self._scattered = 0.0

    @property
    def failure(self) -> "tuple[int, str, str] | None":
        """(shard id, error type name, message) of the first shard that
        reported an error, or ``None``."""
        for shard_id, reply in enumerate(self._replies):
            if reply and reply[0] == "error":
                return shard_id, reply[1], reply[2]
        return None

    def heads(self) -> list[array]:
        """Every shard's head, packed (empty for a shard with no row),
        once every worker has sent one; asked for once."""
        self._pool._until(lambda: all(self._filed))
        if self.failure is not None:
            # the query has failed: stop the others, wait for what
            # they owe, then raise
            self._pool._request(("cancel", self))
            self._pool._until(self._done)
            self._raise_failure()
        heads, self._heads = self._heads, None
        return heads

    def payloads(self) -> list[dict]:
        """Every shard's terminal payload, in shard order."""
        self._pool._until(self._done)
        self._raise_failure()
        return [reply[1] for reply in self._replies]

    def settle(self, cancel: bool) -> list[dict] | None:
        """End the ticket, raising nothing: with *cancel*, workers still
        running are told to stop at their next block; then every reply
        owed is waited for — except on the I/O thread, where the cyclic
        garbage collector may run a stream's finish hook: there the
        replies are filed (and *on_payloads* run) as they come.
        Returns the payloads, or ``None`` for a query that failed or
        has not ended."""
        if cancel:
            self._pool._request(("cancel", self))
        if threading.get_ident() != self._pool._thread.ident:
            try:
                self._pool._until(self._done)
            except ShardError:
                pass  # the pool is closed: what arrived is all there is
        if not self._done() or self.failure is not None:
            return None
        return [reply[1] for reply in self._replies]

    def _done(self) -> bool:
        return None not in self._replies

    def _store(self, shard_id: int, reply: tuple) -> None:
        """File one reply: the next of *turns*, or an ``error`` in place
        of any; anything else is a :class:`ShardError`."""
        kind, filed = reply[0], self._filed[shard_id]
        if (self._replies[shard_id] is not None
                or kind not in (self._turns[filed], "error")):
            raise ShardError(
                f"shard {shard_id} sent {kind!r} out of turn")
        self._filed[shard_id] += 1
        if kind == "head":
            self._heads[shard_id] = reply[1]
        elif kind == "error" or filed + 1 == len(self._turns):
            self._replies[shard_id] = reply
        if self._done():
            self.phases["gather"] = time.perf_counter() - self._scattered
            if self.failure is None and self._on_payloads is not None:
                self._on_payloads([reply[1] for reply in self._replies])

    def _raise_failure(self) -> None:
        """Re-raise a worker-reported error under its original type."""
        failure = self.failure
        if failure is None:
            return
        shard_id, type_name, message = failure
        error_type = getattr(errors, type_name, None)
        if (isinstance(error_type, type)
                and issubclass(error_type, ReproError)):
            raise error_type(f"[shard {shard_id}] {message}")
        raise ShardError(
            f"shard {shard_id} failed: {type_name}: {message}")


class ShardWorkerPool:
    """One coordinator-side handle per shard worker process, and the
    I/O thread that owns their pipes."""

    def __init__(self, pages_paths: list[str],
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        if not pages_paths:
            raise ShardError("a worker pool needs at least one shard")
        self.timeout = timeout
        self._closed = False
        #: why the I/O thread stopped, once it has
        self._failure: Exception | None = None
        #: guards the tickets' filed replies; its waits release every
        #: level, so a finish hook may wait inside a caller's critical
        #: section
        self._ready = threading.Condition(threading.RLock())
        self._requests: SimpleQueue = SimpleQueue()
        self._wake, self._waker = mp.Pipe(duplex=False)
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-shard-io")
        # worker_main takes picklable arguments only (see its module):
        # spawn never inherits the coordinator's threads or locks
        context = mp.get_context("spawn")
        self._processes: list = []
        self._connections: list = []
        #: per shard, the tickets it is owed and the one it answers
        self._waiting = [deque() for _ in pages_paths]
        started = GatherTicket(self, None, turns=("ready",))
        self._running: list[GatherTicket | None] = [started] * self.shards
        try:
            for shard_id, path in enumerate(pages_paths):
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=worker_main,
                    args=(shard_id, str(path), child_end),
                    name=f"repro-shard-{shard_id}", daemon=True)
                process.start()
                child_end.close()
                self._processes.append(process)
                self._connections.append(parent_end)
            self._thread.start()
            self._until(started._done)
            if started.failure is not None:
                raise ShardError(f"failed to start: {started.failure}")
        except BaseException:
            self.close()
            raise

    @property
    def shards(self) -> int:
        return len(self._waiting)

    @property
    def closed(self) -> bool:
        return self._closed

    def alive(self) -> list[bool]:
        return [process.is_alive() for process in self._processes]

    # -- the callers' side ------------------------------------------------

    def _request(self, request: "tuple | None") -> None:
        """Hand the I/O thread a ticket to send, a cancel, or (``None``)
        a stop."""
        self._requests.put(request)
        try:
            self._waker.send_bytes(b"")
        except OSError:
            pass  # the pool is closed: the waits say so

    def _until(self, done: Callable[[], bool]) -> None:
        """Wait until *done* holds, at most ``timeout``.  A failed pool,
        or a wait that outlasts the timeout, is a :class:`ShardError`,
        raised once the pool is torn down."""
        with self._ready:
            if self._ready.wait_for(lambda: done() or self._failure,
                                    self.timeout) and done():
                return
            failure = self._failure or ShardError(
                f"shard workers unresponsive after {self.timeout:.0f}s")
        self.close()
        raise ShardError(str(failure)) from failure

    def scatter(self, plan, pattern, engine: str,
                trace_context: "dict | None" = None,
                first: "int | None" = None,
                on_payloads: "Callable[[list[dict]], None] | None"
                = None) -> GatherTicket:
        """Fan one plan out to every shard; its replies come through the
        returned ticket (*on_payloads* is its hook for them, see
        :class:`GatherTicket`).

        Each worker sends a head of its first *first* rows (``None``:
        all of them) ahead of the rest.
        *trace_context* (a :class:`~repro.obs.spans.TraceContext`
        dict) rides with the plan: a worker handed one runs traced,
        under the coordinator's trace id.  Service threads share the
        pool, and each ticket keeps its own query's phase timings.
        """
        return self._submit(GatherTicket(
            self, ("query", plan, pattern, engine, trace_context, first),
            on_payloads))

    def _submit(self, ticket: GatherTicket,
                shards: "Sequence[int] | None" = None) -> GatherTicket:
        if self._closed:
            raise ShardError("worker pool is closed")
        self._request(("send", ticket,
                       range(self.shards) if shards is None else shards))
        return ticket

    def ping(self) -> list[int]:
        """Round-trip every worker; shard ids echoed back."""
        ticket = self._submit(GatherTicket(self, ("ping",),
                                           turns=("pong",)))
        self._until(ticket._done)
        return [reply[1] for reply in ticket._replies]

    def crash_worker(self, shard_id: int) -> None:
        """Make one worker die on its next message (fault testing)."""
        self._submit(GatherTicket(self, ("exit",), turns=()), [shard_id])

    # -- the I/O thread ---------------------------------------------------

    def _run(self) -> None:
        """Serve until a stop or a failure, then stop every worker (a
        run cancelled first) and wake every waiter."""
        failure: Exception = ShardError("worker pool is closed")
        try:
            self._serve()
        except Exception as error:  # noqa: BLE001 - no waiter may hang
            failure = error
        for connection in self._connections:
            try:
                connection.send(("cancel",))
                connection.send(("stop",))
            except (OSError, ValueError):
                pass
        with self._ready:
            self._failure = failure
            self._ready.notify_all()

    def _serve(self) -> None:
        # a worker's sentinel fires when it dies, and its pipe then
        # holds what it sent before, then its end: both are received
        shard_of = {}
        for shard_id, process in enumerate(self._processes):
            shard_of[process.sentinel] = shard_of[
                self._connections[shard_id]] = shard_id
        while True:
            for ready in wait([self._wake, *shard_of]):
                if ready is not self._wake:
                    self._file(shard_of[ready],
                               self._recv(shard_of[ready]))
            while self._wake.poll():
                self._wake.recv_bytes()
            while not self._requests.empty():
                request = self._requests.get()
                if request is None:
                    return
                kind, ticket, *shards = request
                if kind == "send":
                    for shard_id in shards[0]:
                        self._waiting[shard_id].append(ticket)
                        self._next(shard_id)
                else:  # cancel: the shards still running it stop
                    ticket._cancel = True
                    for shard_id, running in enumerate(self._running):
                        if running is ticket:
                            self._send(shard_id, ("cancel",))

    def _recv(self, shard_id: int) -> tuple:
        """One reply from a shard whose pipe is ready, or
        :class:`ShardError` when it has ended."""
        try:
            return self._connections[shard_id].recv()
        except (EOFError, OSError) as error:
            raise ShardError(
                f"shard worker {shard_id} closed its pipe (exit code "
                f"{self._processes[shard_id].exitcode})") from error

    def _send(self, shard_id: int, message: tuple) -> None:
        try:
            self._connections[shard_id].send(message)
        except (OSError, ValueError) as error:
            raise ShardError(
                f"shard worker {shard_id} is gone: {error}") from error

    def _file(self, shard_id: int, reply: tuple) -> None:
        """File *reply* on the ticket the shard is answering, wake the
        waiters, and send the shard its next message once it is free."""
        ticket = self._running[shard_id]
        if ticket is None:
            raise ShardError(f"shard {shard_id} sent {reply[0]!r} unasked")
        with self._ready:
            ticket._store(shard_id, reply)
            self._ready.notify_all()
        if ticket._replies[shard_id] is not None:
            self._running[shard_id] = None
            self._next(shard_id)

    def _next(self, shard_id: int) -> None:
        """Send an idle shard the oldest message it is owed."""
        waiting = self._waiting[shard_id]
        while self._running[shard_id] is None and waiting:
            ticket = waiting.popleft()
            started = time.perf_counter()
            self._send(shard_id, ticket._message)
            if ticket._cancel:
                self._send(shard_id, ("cancel",))
            ticket._scattered = time.perf_counter()
            ticket.phases["scatter"] += ticket._scattered - started
            if ticket._replies[shard_id] is None:
                self._running[shard_id] = ticket

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop every worker; idempotent, never raises.  The I/O thread
        is given ``timeout`` to stop the workers, which are then joined,
        or terminated."""
        self._request(None)
        if self._thread.is_alive():
            self._thread.join(self.timeout)
        self._teardown()

    def _teardown(self) -> None:
        with self._ready:  # every failed wait closes the pool: once
            if self._closed:
                return
            self._closed = True
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        for connection in (*self._connections, self._wake, self._waker):
            connection.close()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
