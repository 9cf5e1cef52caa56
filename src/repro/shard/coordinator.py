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

The pipes stay in lockstep without a query holding the pool between
its head and its rest: before the pool sends anything new (a query, a
ping, a stop) it receives every reply still owed to the query before
and stores it on that query's ticket, so a stream that is slow, left
unread or never closed costs one stored payload, never a hang.

Failure semantics: a worker that dies (crash, kill, broken pipe) or
stops responding surfaces as a typed
:class:`~repro.errors.ShardError` and the pool tears itself down —
terminating and joining every remaining worker — before re-raising,
so callers never hang on a half-dead pool and never leak processes.
A worker-side *query* error (the worker stays alive) is re-raised
under its original :mod:`repro.errors` type when possible, once every
reply the query is owed has been received — the other workers told
to cancel first — keeping the pipes in lockstep.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from array import array
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from heapq import merge
from itertools import chain, groupby
from operator import eq, itemgetter
from typing import Iterator

from repro import errors
from repro.errors import ReproError, ShardError
from repro.engine.tuples import LabelRow
from repro.shard.worker import worker_main

__all__ = ["GatherTicket", "PackedRows", "ShardWorkerPool",
           "merge_packed_runs"]

#: seconds a gather waits for one shard reply before declaring the
#: worker unresponsive (generous: workers answer in milliseconds).
DEFAULT_TIMEOUT = 60.0


def merge_packed_runs(runs: list[array], width: int, key: int) -> array:
    """The shards' packed runs as one row-major array of start labels:
    exactly the rows a single node returns for the same plan, in the
    same order.

    *runs* are the workers' replies (see :mod:`repro.shard.worker`):
    row-major, *width* labels per row, in shard order, each in the
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
    merged = array("q")
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


class PackedRows(Sequence):
    """A fleet's merged result, still packed: ``labels`` is row-major,
    *width* labels per row, and a label row — a tuple per row, an int
    per label — is cut from it only when read; ``len`` reads nothing.
    Read-only; slices are lists the caller owns."""

    __slots__ = ("labels", "width")

    def __init__(self, labels: array, width: int) -> None:
        self.labels = labels
        self.width = width

    def __len__(self) -> int:
        return len(self.labels) // self.width

    def __iter__(self) -> Iterator[LabelRow]:
        return zip(*[iter(self.labels)] * self.width)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[row] for row in range(len(self))[index]]
        row = range(len(self))[index] * self.width
        return tuple(self.labels[row:row + self.width])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class GatherTicket:
    """One scattered query's replies, received for it by its pool.

    :meth:`heads` waits for every shard's head and hands them over —
    the ticket keeps none — and :meth:`payloads` for every shard's
    terminal payload; either raises a worker's error under its own
    type.  The pool may receive a reply before the reader asks — when
    it must send something new — and then stores it here, so a ticket
    read late reads what was stored.  :attr:`phases` are this query's own
    ``scatter`` seconds and the ``gather`` seconds spent receiving its
    replies, whoever received them.  *on_payloads* is called once,
    with every shard's payload, by whichever thread receives the last
    of them (inside the pool's critical section, so it must not wait
    on the pool) — never for a query that failed.
    """

    def __init__(self, pool: "ShardWorkerPool",
                 on_payloads: "Callable[[list[dict]], None] | None"
                 = None) -> None:
        self.phases = {"scatter": 0.0, "gather": 0.0}
        self._pool = pool
        self._on_payloads = on_payloads
        #: the heads received, until :meth:`heads` hands them over
        self._heads: list[array | None] | None = [None] * pool.shards
        self._replies: list[tuple | None] = [None] * pool.shards
        #: the reader wants the rest of the run no more
        self._cancel = False

    @property
    def failure(self) -> "tuple[int, str, str] | None":
        """(shard id, error type name, message) of the first shard that
        reported an error, or ``None``."""
        for shard_id, reply in enumerate(self._replies):
            if reply is not None and reply[0] == "error":
                return shard_id, reply[1], reply[2]
        return None

    def heads(self) -> list[array]:
        """Every shard's head, packed (empty for a shard with no row),
        once every worker has sent one; asked for once."""
        self._wait(self._has_head)
        if self.failure is not None:
            # the query has failed: stop the others, take what they
            # owe, then raise
            self._cancel = True
            self._wait(self._has_reply)
            self._raise_failure()
        heads, self._heads = self._heads, None
        return heads

    def payloads(self) -> list[dict]:
        """Every shard's terminal payload, in shard order."""
        self._wait(self._has_reply)
        self._raise_failure()
        return [reply[1] for reply in self._replies]

    def settle(self, cancel: bool) -> None:
        """End the ticket, raising nothing: with *cancel*, workers still
        running are told to stop at their next block; then every reply
        owed is received.

        A stream's finish hook calls this, in whatever thread finishes
        it — the cyclic garbage collector's included, which can run it
        inside the pool's own critical section: then nothing is
        received here, and the pool's next message settles the ticket
        (cancel and *on_payloads* included) before it is sent.
        """
        self._cancel = self._cancel or cancel
        if self._pool._holder != threading.get_ident():
            try:
                self._wait(self._has_reply)
            except ShardError:
                pass  # the pool is closed: what arrived is all there is

    def _has_head(self, shard_id: int) -> bool:
        return (self._heads is None or self._heads[shard_id] is not None
                or self._replies[shard_id] is not None)

    def _has_reply(self, shard_id: int) -> bool:
        return self._replies[shard_id] is not None

    def _wait(self, done: Callable[[int], bool]) -> None:
        if self._pool._owing is self:  # once settled, never again
            with self._pool._serving():
                self._pool._collect(self, done)

    def _store(self, shard_id: int, reply: tuple) -> None:
        """File one reply: a head, then an ``ok``, or an ``error`` in
        place of either; anything else is a :class:`ShardError`."""
        kind = reply[0]
        turn = "ok" if self._has_head(shard_id) else "head"
        if self._replies[shard_id] is None and kind in (turn, "error"):
            if kind == "head":
                self._heads[shard_id] = reply[1]
            else:
                self._replies[shard_id] = reply
        else:
            raise ShardError(
                f"shard {shard_id} sent {kind!r} out of turn")

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
    """One coordinator-side handle per shard worker process."""

    def __init__(self, pages_paths: list[str],
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        if not pages_paths:
            raise ShardError("a worker pool needs at least one shard")
        self.timeout = timeout
        self._mutex = threading.Lock()
        #: the thread inside the pool's critical section, if any
        self._holder: int | None = None
        #: the one ticket whose replies are still on the pipes: every
        #: send first settles it, so there is never more than one
        self._owing: GatherTicket | None = None
        self._closed = False
        # worker_main takes picklable arguments only (see its module):
        # spawn never inherits the coordinator's threads or locks
        context = mp.get_context("spawn")
        self._processes: list = []
        self._connections: list = []
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
            for shard_id in range(len(pages_paths)):
                reply = self._recv(shard_id)
                if reply[0] != "ready":
                    raise ShardError(
                        f"shard {shard_id} failed to start: {reply!r}")
        except BaseException:
            self.close()
            raise

    @property
    def shards(self) -> int:
        return len(self._processes)

    @property
    def closed(self) -> bool:
        return self._closed

    def alive(self) -> list[bool]:
        return [process.is_alive() for process in self._processes]

    # -- protocol ---------------------------------------------------------

    def _send(self, shard_id: int, message: tuple) -> None:
        try:
            self._connections[shard_id].send(message)
        except (OSError, ValueError, BrokenPipeError) as error:
            raise ShardError(
                f"shard worker {shard_id} is gone: {error}") from error

    def _recv(self, shard_id: int) -> tuple:
        """One reply from a shard, or :class:`ShardError` on death.

        Polls the pipe so a dead worker is detected promptly instead
        of blocking forever on a ``recv`` that can never complete.
        """
        connection = self._connections[shard_id]
        process = self._processes[shard_id]
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                if connection.poll(0.05):
                    return connection.recv()
            except (EOFError, OSError) as error:
                raise ShardError(
                    f"shard worker {shard_id} closed its pipe "
                    f"(exit code {process.exitcode})") from error
            if not process.is_alive():
                # drain a reply the worker managed to send before dying
                try:
                    if connection.poll(0):
                        return connection.recv()
                except (EOFError, OSError):
                    pass
                raise ShardError(
                    f"shard worker {shard_id} died mid-query "
                    f"(exit code {process.exitcode})")
            if time.monotonic() > deadline:
                raise ShardError(
                    f"shard worker {shard_id} unresponsive after "
                    f"{self.timeout:.0f}s")

    @contextmanager
    def _held(self, timeout: float = -1) -> Iterator[None]:
        """The pool mutex, its holder recorded (see
        :meth:`GatherTicket.settle`).  A query waits for it as long as
        the queries ahead of it take; :meth:`close` passes a *timeout*,
        after which a wedged pool is a :class:`ShardError`."""
        if not self._mutex.acquire(timeout=timeout):
            raise ShardError(f"worker pool busy for {timeout:.0f}s")
        self._holder = threading.get_ident()
        try:
            yield
        finally:
            self._holder = None
            self._mutex.release()

    @contextmanager
    def _serving(self) -> Iterator[None]:
        """The mutex of an open pool; a :class:`ShardError` inside —
        a worker gone — tears the pool down before it propagates."""
        with self._held():
            if self._closed:
                raise ShardError("worker pool is closed")
            try:
                yield
            except ShardError:
                self._teardown()
                raise

    def _collect(self, ticket: GatherTicket,
                 done: Callable[[int], bool]) -> None:
        """Receive *ticket*'s replies until *done* holds for every shard
        (mutex held).  A cancelled ticket first tells every worker it
        still owes a payload to stop (a worker that has sent it by then
        drops the cancel, idle)."""
        if self._owing is not ticket:
            return
        if ticket._cancel:
            for shard_id in range(self.shards):
                if not ticket._has_reply(shard_id):
                    self._send(shard_id, ("cancel",))
        started = time.perf_counter()
        for shard_id in range(self.shards):
            while not done(shard_id):
                ticket._store(shard_id, self._recv(shard_id))
        ticket.phases["gather"] += time.perf_counter() - started
        if all(map(ticket._has_reply, range(self.shards))):
            self._owing = None
            if ticket.failure is None and ticket._on_payloads is not None:
                ticket._on_payloads([reply[1] for reply in ticket._replies])

    def _settle(self) -> None:
        """Receive every reply still owed to an earlier query (mutex
        held) — what the pool does before it sends anything."""
        if self._owing is not None:
            self._collect(self._owing, self._owing._has_reply)

    # -- queries ----------------------------------------------------------

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
        pool: the mutex serializes what goes over the pipes, and the
        ticket keeps the phase timings of its own query, so a stitched
        trace can only ever carry the timings of the query it belongs
        to, however many threads share the pool.
        """
        ticket = GatherTicket(self, on_payloads)
        with self._serving():
            self._settle()
            started = time.perf_counter()
            for shard_id in range(self.shards):
                self._send(shard_id, ("query", plan, pattern, engine,
                                      trace_context, first))
            ticket.phases["scatter"] = time.perf_counter() - started
            self._owing = ticket
        return ticket

    def ping(self) -> list[int]:
        """Round-trip every worker; shard ids echoed back."""
        with self._serving():
            self._settle()
            for shard_id in range(self.shards):
                self._send(shard_id, ("ping",))
            return [self._recv(shard_id)[1]
                    for shard_id in range(self.shards)]

    def crash_worker(self, shard_id: int) -> None:
        """Make one worker die on its next message (fault testing)."""
        with self._serving():
            self._settle()
            self._send(shard_id, ("exit",))

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop every worker; idempotent, never raises on teardown.  A
        query still running is cancelled and its replies received
        first, so no worker is left blocked on a full pipe."""
        try:
            with self._held(self.timeout):
                try:
                    if not self._closed and self._owing is not None:
                        self._owing._cancel = True
                        self._settle()
                finally:
                    self._teardown()
        except ShardError:  # a worker gone, or the pool wedged
            self._teardown()

    def _teardown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard_id, connection in enumerate(self._connections):
            process = self._processes[shard_id]
            try:
                if process.is_alive():
                    connection.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        for connection in self._connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
