"""Worker-pool coordinator: plan once, fan out, gather, merge.

:class:`ShardWorkerPool` owns one process per shard.  The pool's only
query entry point, :meth:`ShardWorkerPool.scatter_gather`, sends the
*same* physical plan to every worker and collects one reply per shard
— the plan-once/fan-out protocol: because shards share the global
label space and the plan was costed against the whole document, the
coordinator's single optimized plan is valid verbatim on every shard.

Failure semantics: a worker that dies (crash, kill, broken pipe) or
stops responding surfaces as a typed
:class:`~repro.errors.ShardError` and the pool tears itself down —
terminating and joining every remaining worker — before re-raising,
so callers never hang on a half-dead pool and never leak processes.
A worker-side *query* error (the worker stays alive) is re-raised
under its original :mod:`repro.errors` type when possible after all
shard replies are drained, keeping the pipes in lockstep.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from array import array
from collections.abc import Sequence
from heapq import merge
from itertools import chain, groupby
from operator import eq, itemgetter
from typing import Iterator

from repro import errors
from repro.errors import ReproError, ShardError
from repro.engine.blocks import row_blocks
from repro.engine.tuples import LabelRow
from repro.shard.worker import worker_main

__all__ = ["PackedRows", "ShardWorkerPool", "merge_packed_runs"]

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
    Read-only; slices and blocks are lists the caller owns."""

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

    def blocks(self, first: "int | None" = 1
               ) -> Iterator[Sequence[LabelRow]]:
        """What a stream's pull loop reads: lists of the engine's
        block sizes or, with ``first=None``, this sequence itself."""
        if first is None:
            return iter((self,) if self.labels else ())
        return row_blocks(self, first)


class ShardWorkerPool:
    """One coordinator-side handle per shard worker process."""

    def __init__(self, pages_paths: list[str],
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        if not pages_paths:
            raise ShardError("a worker pool needs at least one shard")
        self.timeout = timeout
        self._mutex = threading.Lock()
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

    @staticmethod
    def _raise_worker_error(shard_id: int, type_name: str,
                            message: str) -> None:
        """Re-raise a worker-reported error under its original type."""
        error_type = getattr(errors, type_name, None)
        if (isinstance(error_type, type)
                and issubclass(error_type, ReproError)):
            raise error_type(f"[shard {shard_id}] {message}")
        raise ShardError(
            f"shard {shard_id} failed: {type_name}: {message}")

    # -- queries ----------------------------------------------------------

    def scatter_gather(self, plan, pattern, engine: str,
                       trace_context: "dict | None" = None
                       ) -> tuple[list[dict], dict[str, float]]:
        """Fan one plan out to every shard; one payload per shard back.

        Serialized by the pool mutex: the pipe protocol is strictly
        one request, one reply per worker, so overlapping queries from
        service threads queue here instead of interleaving messages.
        *trace_context* (a :class:`~repro.obs.spans.TraceContext`
        dict) rides with the plan: a worker handed one runs traced,
        under the coordinator's trace id.  The call's own ``scatter`` and
        ``gather`` wall seconds come back beside its payloads, so a
        stitched trace can only ever carry the timings of the query it
        belongs to, however many threads share the pool.
        """
        with self._mutex:
            if self._closed:
                raise ShardError("worker pool is closed")
            try:
                scatter_started = time.perf_counter()
                for shard_id in range(self.shards):
                    self._send(shard_id,
                               ("query", plan, pattern, engine,
                                trace_context))
                gather_started = time.perf_counter()
                replies = [self._recv(shard_id)
                           for shard_id in range(self.shards)]
                phases = {
                    "scatter": gather_started - scatter_started,
                    "gather": time.perf_counter() - gather_started,
                }
            except ShardError:
                self._teardown()
                raise
        failure: tuple[int, str, str] | None = None
        payloads: list[dict] = []
        for shard_id, reply in enumerate(replies):
            if reply[0] == "ok":
                payloads.append(reply[1])
            elif reply[0] == "error" and failure is None:
                failure = (shard_id, reply[1], reply[2])
        if failure is not None:
            self._raise_worker_error(*failure)
        return payloads, phases

    def ping(self) -> list[int]:
        """Round-trip every worker; shard ids echoed back."""
        with self._mutex:
            if self._closed:
                raise ShardError("worker pool is closed")
            try:
                for shard_id in range(self.shards):
                    self._send(shard_id, ("ping",))
                return [self._recv(shard_id)[1]
                        for shard_id in range(self.shards)]
            except ShardError:
                self._teardown()
                raise

    def crash_worker(self, shard_id: int) -> None:
        """Make one worker die on its next message (fault testing)."""
        with self._mutex:
            if self._closed:
                raise ShardError("worker pool is closed")
            self._send(shard_id, ("exit",))

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop every worker; idempotent, never raises on teardown."""
        with self._mutex:
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
