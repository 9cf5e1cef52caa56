"""The asyncio HTTP/JSON query server.

One event loop owns connections and deadlines; plan optimization and
execution run on a thread pool, handing rows back to the loop in
engine blocks.  ``/query`` is admission-controlled (see
:mod:`repro.server.admission`); the observability routes
(``/metrics``, ``/traces``, ``/slo``, ``/planspace``, ``/healthz``)
are served from the same socket but are never shed — you can always
observe a saturated server.

Request surface (``GET`` with query-string parameters or ``POST``
with a JSON object; body keys win)::

    xpath       required       the query
    algorithm   DPP            one of the paper's optimizers
    stream      0              1/true: chunked NDJSON, rows as produced
    limit       0              stop after N rows (0 = all)
    timeout_ms  config default per-request deadline
    tenant      "anonymous"    admission bucket (or ``X-Tenant``)

Any other key is ignored: a request says what to match, and how it is
run is the optimizer's choice alone.

Row hand-off, streamed and buffered, single-node and sharded alike: a
producer thread reads ``QueryService.stream`` (the one request path,
``service.query``'s too) block by block and hands each block over as
it is — the engine's first is a single row, so time-to-first-result
never waits for a block to fill, every later one up to its
``BLOCK_ROWS``.  One hand-off is one cross-thread wake-up and one
encode of the block's packed labels in the producer thread; for a
streamed response also one chunk, write and drain on the loop, for a
buffered one an ``append`` (the body splices the pieces in once).
The producer's end, and its error, ride on its last block: a full
block leaves at once, a shorter one is held until the next pull says
the stream ended with it.  A streamed response of k blocks is k + 1
hand-offs (its head has one of its own; one more when the result ends
exactly on a full block), a buffered one k.  The pool job is
``executor.submit``-ted and the loop waits for it only when it hung up
before the last hand-off.
A request with a ``limit`` asks for its page plus one row as its first
block: that row tells a truncated result from one that just fits, and
the engine builds no rows past it.
At most ``HANDOFF_DEPTH`` are outstanding: a producer that far ahead
of its client blocks, so a slow client costs one worker thread, one
admission slot — until its deadline — and a bounded number of rows.

A streamed response is NDJSON in chunks, and a chunk is an engine
block, not a row: the schema line alone in the first (written together
with the response head), the first block in the second, the summary
line alone in the last (so an empty result is two chunks, and two
writes).

``X-Trace-Id`` forces a traced execution joined to the caller's trace
id — the stitched tree lands in ``/traces`` under that id.  The
deadline is a timer that cancels the connection's own task (no task
is made per request).  At the deadline the response ends with what
has been delivered: the consumer stops taking hand-offs and hangs
up, which wakes a blocked producer
and makes the executor's cancel predicate (consulted after each block
is pulled) true, so the operators are closed; the loop then waits
for the producer to have closed its stream.  Rows the engine had
produced but the loop had not yet written (or collected) are
*dropped*, not flushed, and ``rows`` in the 504 body — or in the
terminal NDJSON line with ``"cancelled": true`` — counts rows
delivered, which for a stream is exactly the row lines on the wire.
A client that is not taking what it was sent when the deadline fires
gets no terminal line (it could not be delivered either): its
connection is dropped.  The error-budget burn shows up in ``/slo``
either way.

A connection reads its next request in its own task, under a
keep-alive timer; the drain cancels the connections that are idle,
waiting for a request.  Shutdown is one path for every entry point
(``repro serve``, tests): stop accepting, close idle connections,
finish in-flight requests within the drain budget, flush the query
log, report.  SIGTERM exits
0, SIGINT exits 130, a taken port exits 2 before serving anything.
"""

from __future__ import annotations

import asyncio
import math
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import IO, Callable

from repro.errors import (OptimizerError, PatternError, PlanError,
                          QueryCancelled, UnshardablePatternError,
                          XPathSyntaxError)
from repro.engine import blocks as engine_blocks
from repro.engine.executor import StreamingExecution
from repro.engine.tuples import PackedRows
from repro.obs.spans import TraceContext
from repro.server.admission import AdmissionController, Rejection
from repro.server.http import (ChunkedWriter, HttpRequest,
                               ProtocolError, json_line,
                               json_response, json_result, json_rows,
                               ndjson_rows, read_request,
                               render_response)

__all__ = ["ServerConfig", "QueryServer"]

#: request errors that are the client's fault
BAD_REQUEST_ERRORS = (XPathSyntaxError, PatternError, PlanError,
                      OptimizerError, UnshardablePatternError)

_TRUTHY = ("1", "true", "yes", "on")

#: Hand-offs a producer may be ahead of what its client has taken
#: before it blocks; with the engine's ``BLOCK_ROWS``, the most rows a
#: stalled client holds in server memory (the transport's own buffer
#: aside).  Measured like ``BLOCK_ROWS`` (:mod:`repro.engine.blocks`),
#: at 256 rows a block -- depth 2: 39.5 req/s, 4: 44, 8: 42, 16: 42,
#: and wire TTFR 1.4 / 1.4 / 2.5 / 5.5 ms: a producer that may run far
#: ahead keeps the interpreter lock while the loop waits to write the
#: first row.
HANDOFF_DEPTH = 4

_HEAD = "head"  # hand-off item: the stream is open, its schema known


@dataclass
class ServerConfig:
    """Tunables for one :class:`QueryServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick a free port, announce the real one
    workers: int = 4  # query executor threads
    queue_depth: int = 8  # admitted requests beyond the workers
    tenant_rate: float = 50.0  # requests/second/tenant (0 disables)
    tenant_burst: float = 100.0
    deadline_seconds: float = 30.0  # default per-request deadline
    max_deadline_seconds: float = 300.0
    drain_seconds: float = 5.0  # shutdown budget for in-flight work
    keep_alive_seconds: float = 75.0  # idle connection timeout
    max_body_bytes: int = 1 << 20
    algorithm: str = "DPP"

    @property
    def max_inflight(self) -> int:
        return self.workers + self.queue_depth


@dataclass
class _QueryParams:
    xpath: str
    algorithm: str
    stream: bool
    limit: int
    deadline: float
    tenant: str
    trace_id: str


class _Handoff:
    """The bounded channel from one producer thread to the event loop.

    An item is :data:`_HEAD` (streamed responses only) or ``(rows,
    payload, last)``: a block's row count, its NDJSON bytes (streamed)
    or rows (buffered), and whether it is the producer's last
    hand-off.  Each :meth:`put` is one cross-thread wake-up.  The
    producer :meth:`put`\\ s items and blocks while ``HANDOFF_DEPTH``
    of them are outstanding; the consumer coroutine :meth:`get`\\ s
    one, deals with it — for a streamed response that includes
    waiting for the client — and only then calls :meth:`taken`, so a
    client slower than the engine throttles the engine.
    :meth:`hang_up` is the consumer saying it will take no
    more: it wakes a blocked producer, turns every later ``put`` into
    a no-op and makes :meth:`cancelled` — the executor's cancel
    predicate — true, so the producer's next pull raises
    ``QueryCancelled``.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 on_wait: Callable[[], None]) -> None:
        self._loop = loop
        self._items: "asyncio.Queue[object]" = asyncio.Queue()
        self._room = threading.Condition()
        self._outstanding = 0
        self._hung_up = False
        self._on_wait = on_wait

    def cancelled(self) -> bool:
        return self._hung_up

    def put(self, item: object) -> None:
        """Producer thread: hand *item* over, waiting for room."""
        with self._room:
            if self._outstanding >= HANDOFF_DEPTH and not self._hung_up:
                self._on_wait()
                self._room.wait_for(
                    lambda: (self._outstanding < HANDOFF_DEPTH
                             or self._hung_up))
            if self._hung_up:
                return
            self._outstanding += 1
        try:
            self._loop.call_soon_threadsafe(self._items.put_nowait,
                                            item)
        except RuntimeError:
            pass  # loop closed mid-drain; nobody left to hand to

    async def get(self) -> object:
        return await self._items.get()

    def taken(self) -> None:
        """Event loop: the item last got has been dealt with."""
        with self._room:
            self._outstanding -= 1
            self._room.notify()

    def hang_up(self) -> None:
        with self._room:
            self._hung_up = True
            self._room.notify()


@dataclass
class _Delivery:
    """How far one ``/query`` response has got, as the loop sees it."""

    chunked: "ChunkedWriter | None"  # None: a buffered response
    stream: "StreamingExecution | None" = None  # set before a hand-off
    error: "Exception | None" = None  # set before the last hand-off
    bindings: "list[bytes]" = field(default_factory=list)  # encoded
    rows: int = 0  # delivered: written to the client, or collected
    ttfr: "float | None" = None
    ended: bool = False  # the loop took the producer's last hand-off
    client_gone: bool = False


class QueryServer:
    """Serve a :class:`~repro.api.Database` (or sharded facade) over
    HTTP.

    Three ways to run it: :meth:`run` blocks the calling thread and
    owns signals (the CLI path, ``repro serve``); :meth:`start` /
    :meth:`stop` run the loop on a daemon thread (tests, the load
    harness); or await :meth:`serve` from an existing loop.
    """

    def __init__(self, database, config: ServerConfig | None = None,
                 out: "IO[str] | None" = None) -> None:
        self.database = database
        self.config = config or ServerConfig()
        self.service = database.service
        self.out = out if out is not None else sys.stdout
        self.admission = AdmissionController(
            self.config.max_inflight,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst)
        self.host = self.config.host
        self.port = self.config.port
        self.exit_code = 0
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._shutdown: asyncio.Event | None = None
        self._connections: "set[asyncio.Task]" = set()
        #: connections waiting for their next request
        self._idle: "set[asyncio.Task]" = set()
        self._draining = False
        self._started_monotonic = time.monotonic()
        self._requests_inflight = 0
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._bind_error: OSError | None = None
        self._served = 0  # lifetime request count for the drain report
        registry = self.service.registry
        self._http_requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route and status")
        self._http_rejections = registry.counter(
            "repro_http_rejected_total",
            "Requests shed by admission control, by reason")
        self._http_cancelled = registry.counter(
            "repro_http_cancelled_total",
            "Requests cancelled by their deadline")
        self._http_rows = registry.counter(
            "repro_http_rows_total",
            "Result rows delivered: streamed to a client or collected "
            "into a buffered body")
        self._http_batches = registry.counter(
            "repro_http_row_batches_total",
            "Row batches handed from producer threads to the event "
            "loop (rows / batches is the live batch size)")
        self._http_backpressure = registry.counter(
            "repro_http_backpressure_waits_total",
            "Times a producer thread blocked on a full hand-off: the "
            "loop and its client were behind the engine")
        registry.register_collector(self._collect_gauges)

    def _collect_gauges(self) -> None:
        registry = self.service.registry
        snapshot = self.admission.snapshot()
        registry.gauge("repro_http_inflight",
                       "Admitted requests currently in flight").set(
            snapshot["inflight"])
        registry.gauge("repro_http_draining",
                       "1 while the server drains for shutdown").set(
            1 if self._draining else 0)
        registry.gauge("repro_http_tenants",
                       "Tenants with an admission bucket").set(
            snapshot["tenants"])

    def _count_request(self, route: str, status: int) -> None:
        self._served += 1
        self._http_requests.inc(route=route, status=str(status))

    # -- lifecycle (the one shutdown path) ------------------------------

    def run(self, install_signals: bool = True) -> int:
        """Serve until a shutdown signal; returns the exit code.

        Exit codes are shared across every server entry point: **2**
        when the port cannot be bound (reported on stderr before
        anything serves), **130** after SIGINT, **0** after SIGTERM or
        a programmatic :meth:`stop` — the latter two drain first.
        """
        try:
            asyncio.run(self._main(install_signals=install_signals))
        except KeyboardInterrupt:
            # platforms without add_signal_handler (or a second ^C
            # during drain): still report the conventional code
            self.exit_code = 130
        return self.exit_code

    def start(self) -> "tuple[str, int]":
        """Serve on a daemon thread; returns the bound address."""
        self._thread = threading.Thread(
            target=self._run_background, name="repro-server",
            daemon=True)
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._bind_error is not None:
            raise self._bind_error
        return self.host, self.port

    def _run_background(self) -> None:
        try:
            asyncio.run(self._main(install_signals=False))
        finally:
            self._ready.set()

    def stop(self) -> None:
        """Request a graceful drain from any thread and wait for it."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._request_shutdown,
                                          "stop", 0)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=15.0)

    async def _main(self, install_signals: bool) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._shutdown = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-query")
        try:
            self._server = await asyncio.start_server(
                self._on_connection, self.config.host,
                self.config.port)
        except OSError as exc:
            print(f"error: cannot listen on "
                  f"{self.config.host}:{self.config.port}: {exc}",
                  file=sys.stderr)
            self.exit_code = 2
            self._bind_error = exc
            self._executor.shutdown(wait=False)
            self._ready.set()
            return
        sockets = self._server.sockets or []
        if sockets:
            self.host, self.port = sockets[0].getsockname()[:2]
        if install_signals:
            for signum, code in ((signal.SIGINT, 130),
                                 (signal.SIGTERM, 0)):
                try:
                    loop.add_signal_handler(
                        signum, self._request_shutdown,
                        signal.Signals(signum).name, code)
                except (NotImplementedError, RuntimeError):
                    pass
        self.out.write(
            f"serving /query, /metrics, /traces, /slo, /planspace "
            f"and /healthz on http://{self.host}:{self.port} "
            f"(Ctrl-C to stop)\n")
        try:
            self.out.flush()
        except (ValueError, OSError):
            pass
        self._ready.set()
        await self._shutdown.wait()
        await self._drain()

    def _request_shutdown(self, cause: str, exit_code: int) -> None:
        if self._draining:
            return
        self._draining = True
        self.exit_code = exit_code
        inflight = self.admission.snapshot()["inflight"]
        self.out.write(f"{cause}: draining ({inflight} in flight, "
                       f"budget {self.config.drain_seconds:.1f}s)\n")
        assert self._shutdown is not None
        self._shutdown.set()

    async def _drain(self) -> None:
        """Stop accepting, finish in-flight work, flush the query log."""
        assert self._server is not None
        self._server.close()
        # idle keep-alive connections close at once; busy ones finish
        # their current request within the drain budget
        for task in self._idle:
            task.cancel()
        await self._server.wait_closed()
        pending = [task for task in self._connections
                   if not task.done()]
        if pending:
            await asyncio.wait(pending,
                               timeout=self.config.drain_seconds)
        for task in self._connections:
            if not task.done():
                task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
        flushed = ""
        log = self.database.query_log
        if log is not None:
            log.flush()
            flushed = ", query log flushed"
        self.out.write(f"drained: {self._served} requests "
                       f"served{flushed}\n")
        try:
            self.out.flush()
        except (ValueError, OSError):
            pass

    # -- connections ----------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            while True:
                request = await self._next_request(reader, task)
                if request is None:
                    break
                keep = await self._dispatch(request, writer)
                if not keep or self._draining:
                    break
        except ProtocolError as exc:
            try:
                writer.write(json_response(
                    exc.status, {"error": str(exc)},
                    keep_alive=False))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # past the drain budget: closing politely would wait for
            # a client that is not reading what it was sent
            writer.transport.abort()
            raise
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _next_request(self, reader: asyncio.StreamReader,
                            task: asyncio.Task) -> HttpRequest | None:
        """One request, or ``None`` on idle timeout / drain / EOF.

        The connection's own task reads it.  While it waits the
        connection is idle, and an idle connection is cancelled by
        the keep-alive timer or by the drain: either means close.
        """
        if self._draining:
            return None
        assert self._loop is not None
        timer = self._loop.call_later(self.config.keep_alive_seconds,
                                      task.cancel)
        self._idle.add(task)
        try:
            return await read_request(reader,
                                      self.config.max_body_bytes)
        except asyncio.CancelledError:
            return None
        finally:
            self._idle.discard(task)
            timer.cancel()

    async def _dispatch(self, request: HttpRequest,
                        writer: asyncio.StreamWriter) -> bool:
        route = request.path
        keep = request.keep_alive and not self._draining
        if route == "/query":
            if request.method not in ("GET", "POST"):
                return await self._respond(
                    writer, route, 405,
                    {"error": "use GET or POST"}, keep)
            return await self._handle_query(request, writer, keep)
        if request.method != "GET":
            return await self._respond(writer, route, 405,
                                       {"error": "use GET"}, keep)
        body, content_type = self._observability_body(route)
        if body is None:
            return await self._respond(writer, route, 404,
                                       {"error": f"no route {route}"},
                                       keep)
        payload = render_response(200, body, content_type=content_type,
                                  keep_alive=keep)
        writer.write(payload)
        await writer.drain()
        self._count_request(route, 200)
        return keep

    def _observability_body(self, route: str
                            ) -> "tuple[bytes | None, str]":
        import json as _json

        service = self.service
        if route in ("/", "/metrics"):
            return (service.export_metrics("prometheus")
                    .encode("utf-8"), "text/plain; version=0.0.4")
        if route == "/traces":
            return (_json.dumps({"traces": service.traces()}, indent=2,
                                sort_keys=True).encode("utf-8"),
                    "application/json")
        if route == "/slo":
            return (_json.dumps(service.slo.snapshot(), indent=2,
                                sort_keys=True).encode("utf-8"),
                    "application/json")
        if route == "/planspace":
            return (_json.dumps({"planspace": service.planspace()},
                                indent=2,
                                sort_keys=True).encode("utf-8"),
                    "application/json")
        if route == "/healthz":
            admission = self.admission.snapshot()
            return (_json.dumps({
                "status": "draining" if self._draining else "ok",
                "uptime_seconds": (time.monotonic()
                                   - self._started_monotonic),
                "statistics_epoch": self.database.statistics_epoch,
                "queries": service.snapshot()["queries"],
                "inflight": admission["inflight"],
                "max_inflight": admission["max_inflight"],
                "tenants": admission["tenants"],
            }, indent=2, sort_keys=True).encode("utf-8"),
                "application/json")
        return None, ""

    async def _respond(self, writer: asyncio.StreamWriter, route: str,
                       status: int, payload: dict,
                       keep: bool,
                       extra_headers: "dict[str, str] | None" = None
                       ) -> bool:
        writer.write(json_response(status, payload,
                                   extra_headers=extra_headers,
                                   keep_alive=keep))
        await writer.drain()
        self._count_request(route, status)
        return keep

    # -- the query path -------------------------------------------------

    def _parse_query_params(self, request: HttpRequest) -> _QueryParams:
        params: dict[str, object] = dict(request.query)
        params.update(request.json_body())

        def text(name: str, default: str = "") -> str:
            value = params.get(name, default)
            return str(value) if value is not None else default

        xpath = text("xpath") or text("query")
        if not xpath:
            raise ProtocolError(400, "missing required parameter "
                                     "'xpath'")
        try:
            limit = int(params.get("limit", 0) or 0)
        except (TypeError, ValueError):
            raise ProtocolError(400, "limit must be an integer")
        if limit < 0:
            raise ProtocolError(400, "limit must be >= 0")
        deadline_ms = (params.get("timeout_ms")
                       or request.headers.get("x-deadline-ms"))
        deadline = self.config.deadline_seconds
        if deadline_ms is not None:
            try:
                deadline = float(deadline_ms) / 1000.0
            except (TypeError, ValueError):
                raise ProtocolError(400, "timeout_ms must be a number")
            if deadline <= 0:
                raise ProtocolError(400, "timeout_ms must be > 0")
        deadline = min(deadline, self.config.max_deadline_seconds)
        tenant = (text("tenant")
                  or request.headers.get("x-tenant", "")
                  or "anonymous")
        trace_id = request.headers.get("x-trace-id",
                                       text("trace_id")).strip()
        if len(trace_id) > 64:
            raise ProtocolError(400, "trace id too long")
        stream = text("stream").lower() in _TRUTHY
        return _QueryParams(
            xpath=xpath,
            algorithm=text("algorithm") or self.config.algorithm,
            stream=stream, limit=limit, deadline=deadline,
            tenant=tenant, trace_id=trace_id)

    async def _handle_query(self, request: HttpRequest,
                            writer: asyncio.StreamWriter,
                            keep: bool) -> bool:
        params = self._parse_query_params(request)
        rejection = self.admission.admit(params.tenant)
        if rejection is not None:
            return await self._reject(writer, rejection, keep)
        started = time.perf_counter()
        try:
            return await self._execute_query(writer, params, keep,
                                             started)
        finally:
            self.admission.release(time.perf_counter() - started)

    async def _reject(self, writer: asyncio.StreamWriter,
                      rejection: Rejection, keep: bool) -> bool:
        self._http_rejections.inc(reason=rejection.reason)
        # the header carries the RFC's integral seconds (rounded up,
        # never zero); the body carries the exact figure for clients
        # that can pace themselves more finely
        headers = {"Retry-After":
                   str(max(1, math.ceil(rejection.retry_after)))}
        return await self._respond(
            writer, "/query", 429,
            {"error": "rejected", "reason": rejection.reason,
             "tenant": rejection.tenant,
             "retry_after_seconds": round(rejection.retry_after, 6)},
            keep, extra_headers=headers)

    async def _execute_query(self, writer: asyncio.StreamWriter,
                             params: _QueryParams, keep: bool,
                             started: float) -> bool:
        loop = asyncio.get_running_loop()
        handoff = _Handoff(loop, self._http_backpressure.inc)
        delivery = _Delivery(
            ChunkedWriter(writer) if params.stream else None)
        trace_context = (TraceContext(trace_id=params.trace_id)
                         if params.trace_id else None)

        def flush(block: "PackedRows | tuple", last: bool = False
                  ) -> None:
            # a block is encoded here, in the producer thread: the
            # loop only frames and writes it, or collects it
            handoff.put((len(block), (ndjson_rows if params.stream
                                      else json_rows)(block), last))

        def produce() -> None:
            # the end, and an error, ride on the last hand-off: a
            # block shorter than asked for is held until the next
            # pull says whether the stream ended with it
            held: "PackedRows | tuple" = ()
            try:
                if handoff.cancelled():
                    return  # the deadline beat the pool to a thread
                _, stream = self.service.stream(
                    params.xpath, params.algorithm,
                    cancel=handoff.cancelled,
                    trace_context=trace_context)
                delivery.stream = stream
                if params.stream:
                    handoff.put(_HEAD)
                # a limited request's first block: its page and one row
                size = params.limit + 1 if params.limit else 1
                for block in stream.blocks(size):
                    if held:
                        flush(held)
                        held = ()
                    # limit is a slice of the last block; reading on
                    # until it is *passed* tells a truncated result
                    # from one that just fits
                    over = params.limit and stream.produced - params.limit
                    if over > 0:
                        block = block[:len(block) - over]
                        stream.close()
                        held = block
                        break
                    if len(block) < size:
                        held = block
                    else:
                        flush(block)
                    size = engine_blocks.BLOCK_ROWS
            except QueryCancelled:
                pass  # the consumer hung up, and knows why
            except Exception as exc:
                delivery.error = exc
            finally:
                flush(held, last=True)

        assert self._executor is not None
        job = self._executor.submit(produce)
        # the one per-request watchdog: whatever the consumer is
        # waiting for at the deadline -- a pool thread, the producer,
        # the client -- it stops waiting.  A timer cancels this task;
        # the flag tells that cancel from the drain's
        task = asyncio.current_task()
        assert task is not None
        timed_out = False

        def expire() -> None:
            nonlocal timed_out
            timed_out = True
            task.cancel()

        timer = loop.call_later(params.deadline, expire)
        try:
            await self._deliver(handoff, delivery, params, keep, started)
        except asyncio.CancelledError:
            if not timed_out:
                raise
            if sys.version_info >= (3, 11):
                task.uncancel()
            if delivery.chunked is not None and delivery.chunked.stalled:
                # the deadline found the client not taking what it had
                # been sent: a terminal line could not reach it either
                delivery.client_gone = True
        finally:
            timer.cancel()
            # deadline, disconnect, server drain or a normal end: the
            # producer never outlives its request
            handoff.hang_up()
        if not delivery.ended:
            # hung up before the last hand-off: the producer may still
            # hold the stream; it closes it at its next pull
            await asyncio.wrap_future(job)
        error = delivery.error
        if delivery.client_gone:
            # nothing more can reach this client; drop what the
            # transport still buffers for it instead of waiting
            writer.transport.abort()
        outcome = ("error" if error is not None
                   else "cancelled" if timed_out or delivery.client_gone
                   else "done")
        return await self._finish_query(
            writer, delivery, params, keep, outcome, error,
            time.perf_counter() - started)

    async def _deliver(self, handoff: "_Handoff", delivery: "_Delivery",
                       params: _QueryParams, keep: bool,
                       started: float) -> None:
        """Write (or collect) what the producer hands off, one batch
        per iteration, until its last hand-off or the client is
        gone."""
        chunked = delivery.chunked
        try:
            while True:
                item = await handoff.get()
                if item is _HEAD:
                    await self._start_stream(chunked, delivery, params,
                                             keep)
                else:
                    count, rows, last = item
                    if count:
                        if delivery.ttfr is None:
                            delivery.ttfr = time.perf_counter() - started
                        if chunked is not None:
                            await chunked.send(rows)
                        else:
                            delivery.bindings.append(rows)
                        delivery.rows += count
                        self._http_rows.inc(count)
                        self._http_batches.inc()
                    if last:
                        delivery.ended = True
                        return
                handoff.taken()
        except (ConnectionError, OSError):
            delivery.client_gone = True

    async def _start_stream(self, chunked: ChunkedWriter,
                            delivery: "_Delivery",
                            params: _QueryParams, keep: bool) -> None:
        headers = {}
        if params.trace_id:
            headers["X-Trace-Id"] = params.trace_id
        chunked.start(200, extra_headers=headers, keep_alive=keep)
        await chunked.send(json_line({
            "schema": list(delivery.stream.schema.node_ids),
            "query": params.xpath,
            "algorithm": params.algorithm,
            "trace_id": params.trace_id,
        }))

    async def _finish_query(self, writer: asyncio.StreamWriter,
                            delivery: _Delivery,
                            params: _QueryParams, keep: bool,
                            outcome: str,
                            error: "Exception | None",
                            elapsed: float) -> bool:
        """Send the terminal response/line and observe the request."""
        cancelled = outcome == "cancelled"
        chunked, stream = delivery.chunked, delivery.stream
        rows, ttfr = delivery.rows, delivery.ttfr
        trace_id = params.trace_id
        if stream is not None and stream.span is not None:
            trace_id = stream.span.trace_id or trace_id
        if cancelled:
            self._http_cancelled.inc()
        if outcome == "error":
            assert error is not None
            status = (400 if isinstance(error, BAD_REQUEST_ERRORS)
                      else 500)
            self.service.observe_served_query(
                elapsed, time_to_first=ttfr, error=True,
                trace_id=trace_id)
            if delivery.client_gone:
                return False
            if chunked is not None and chunked.started:
                # the stream is already under way: report in-band,
                # the chunked encoding stays well-formed
                await self._terminal_line(chunked, {
                    "done": True, "error": str(error),
                    "rows": rows, "seconds": round(elapsed, 6)})
                self._count_request("/query", status)
                return keep
            return await self._respond(
                writer, "/query", status,
                {"error": str(error),
                 "kind": type(error).__name__}, keep)
        self.service.observe_served_query(
            elapsed, time_to_first=ttfr, error=cancelled,
            trace_id=trace_id,
            metrics=(stream.metrics
                     if outcome == "done" and stream is not None
                     else None),
            rows=rows, query=params.xpath,
            algorithm=params.algorithm)
        if delivery.client_gone:
            return False
        summary = {
            "done": True,
            "cancelled": cancelled,
            "rows": rows,
            "truncated": outcome == "done" and not stream.exhausted,
            "seconds": round(elapsed, 6),
            "time_to_first_seconds": (round(ttfr, 6)
                                      if ttfr is not None else None),
            "trace_id": trace_id,
        }
        if cancelled:
            summary["error"] = "deadline exceeded"
        status = 504 if cancelled else 200
        if chunked is not None and chunked.started:
            await self._terminal_line(chunked, summary)
            self._count_request("/query", status)
            return keep
        headers = {"X-Trace-Id": trace_id} if trace_id else None
        if cancelled:
            # buffered, or streamed and cancelled before the head
            # went out: a clean status response is still possible
            return await self._respond(writer, "/query", status,
                                       summary, keep,
                                       extra_headers=headers)
        summary["query"] = params.xpath
        summary["algorithm"] = params.algorithm
        summary["schema"] = list(stream.schema.node_ids)
        writer.write(render_response(200, json_result(summary,
                                                      delivery.bindings),
                                     extra_headers=headers,
                                     keep_alive=keep))
        await writer.drain()
        self._count_request("/query", 200)
        return keep

    async def _terminal_line(self, chunked: ChunkedWriter,
                             payload: dict) -> None:
        try:
            await chunked.finish(json_line(payload))
        except (ConnectionError, OSError):
            pass
