"""``serve_stream`` and ``serve_mixed`` — the program behind its socket.

Both drive a single-node ``python -m repro serve`` child over Pers 2000
from one single-threaded generator process over keep-alive
connections: two for the closed loop (never more requests in flight
than cores), one per tenant for the open loop (with two, requests
queue for a connection and the generator runs 18 ms late at p95).

``serve_stream``: closed loop, quotas off, full **streamed** NDJSON of
four hot queries, plan cache 100 % warm.  The served path as ROADMAP
describes it — tuple engine, one cross-thread hand-off and one chunk
per row — so the server's hand-off + encode and the engine's streaming
dominate and the optimizer does nothing.

``serve_mixed``: **open loop** at a fixed rate, 4 tenants with the
default quotas, latency timed from the *due* time: 70 % buffered
bodies, 30 % ``stream=1&limit=20`` first pages; 80 % of requests draw
from a 16-query hot set, 20 % are never-repeated patterns (a seeded
constant in an always-true predicate), so the plan cache misses at a
known 0.2.  Same layers used differently: a streaming gain that taxes
the buffered path, or a cache change that slows misses, shows here.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
from dataclasses import dataclass, replace

from perf.bench import Recorder, clock, mean, percentile
from perf.loadgen import Connection, Reply, ServerChild
from perf.oracle import Oracle

DATA_SEED = 42
STREAM_QUERIES = (
    "//employee//name",
    "//employee//os",  # no such tag: the empty-result path
    "//employee",
    "//manager[./employee/name][./department/name]",
)
#: (root step, rest of the path); every root step carries an ``id``
#: attribute, which the never-repeated variants test against a
#: constant no id equals
MIXED_HOT = (
    ("employee", "//name"), ("employee", "/name"),
    ("employee", "/phone"), ("employee", ""),
    ("manager", "/name"), ("manager", "/email"),
    ("manager", "/department"), ("manager", "//department/name"),
    ("manager", "/employee"), ("manager", "//employee/name"),
    ("manager", "/manager/name"), ("department", "/name"),
    ("department", "/employee/name"), ("department", "[./employee]/name"),
    ("manager", "[./employee/name][./department/name]"),
    ("manager", "[./email]/employee/phone"),
)
#: offered load of ``serve_mixed``: about half of what this mix
#: sustains on the seed commit when this box runs slow (~80 req/s)
MIXED_RATE = 40.0
MIXED_TENANTS = 4
MISS_SHARE = 0.2
STREAM_SHARE = 0.3
FIRST_PAGE = 20
#: in-process replays of the request sequence in a traced run
REPLAY_REQUESTS = 80
LATENESS_LIMIT_MS = 5.0


@dataclass(frozen=True)
class Request:
    xpath: str
    stream: bool
    limit: int
    tenant: str
    kind: str
    due: float = 0.0


class _Serve:
    """What the two HTTP workloads share: the child, the connections,
    the oracle check, the traced run's wire phases and replay."""

    in_process = False
    root_span = "request"
    server_arguments: tuple[str, ...] = ()
    connections = 2

    def __init__(self, seed: int, speed, scratch) -> None:
        self.rng = random.Random(seed)
        self.speed = speed
        self.scratch = scratch
        self.server = None
        self.expected: dict[str, int] = {}
        self.budget = None

    def prepare(self) -> None:
        from repro.document.serialize import serialize
        from repro.workloads import personnel_document

        self.xml = serialize(personnel_document(target_nodes=2000,
                                                seed=DATA_SEED))
        self.xml_path = self.scratch / "pers.xml"
        self.xml_path.write_text(self.xml, encoding="utf-8")
        self.oracle = Oracle(self.xml)

    def expect(self, xpath: str) -> int:
        from repro.xpath.parser import compile_xpath

        if xpath not in self.expected:
            self.expected[xpath] = self.oracle.count(compile_xpath(xpath))
        return self.expected[xpath]

    def set_up(self) -> None:
        # generator and server share one CPU (the child inherits the
        # mask): the speed kernel then runs on the very core the
        # server just used, and requests still overlap inside the
        # server, whose threads one interpreter lock serialises anyway
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.server = ServerChild(self.xml_path, self.scratch,
                                  self.server_arguments)
        asyncio.run(self._warm())

    async def _warm(self) -> None:
        """Plan cache filled for the hot set, postings decoded."""
        connection = await Connection(self.server.port).open()
        try:
            for xpath in self.hot_queries:
                await connection.query(xpath, stream=True)
        finally:
            await connection.close()

    def tear_down(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def run(self, rec: Recorder, seconds: float, tracer=None) -> dict:
        return asyncio.run(self._run(rec, seconds, tracer))

    # -- one request -------------------------------------------------------

    async def issue(self, connection: Connection, request: Request,
                    rec: Recorder, tracer, headers=None) -> Reply:
        all_headers = {"X-Tenant": request.tenant, **(headers or {})}
        try:
            reply = await connection.query(request.xpath, request.stream,
                                           request.limit, all_headers)
        except (OSError, asyncio.TimeoutError, ValueError,
                asyncio.IncompleteReadError) as error:
            now = clock()
            rec.op(request.kind, now, now, False, repr(error))
            return None
        start = request.due or reply.sent
        count = self.expect(request.xpath)
        expected = min(count, request.limit) if request.limit else count
        ok = (reply.status == 200 and not reply.cancelled
              and reply.rows == expected)
        rec.op(request.kind, start, reply.end, ok,
               f"status {reply.status}, {reply.rows} rows, oracle says "
               f"{expected}")
        if tracer is not None and ok:
            op = tracer.new_op()
            root = tracer.add("request", start, reply.end, op)
            tracer.add("server.head", reply.sent, reply.head, op, root)
            first = reply.first_row or reply.end
            tracer.add("server.first_row", reply.head, first, op, root)
            tracer.add("server.body", first, reply.end, op, root)
        return reply

    # -- per-layer metrics shared by both workloads -------------------------

    def wire_layers(self, rec: Recorder, replies: list[Reply],
                    connections: list[Connection], tracer,
                    before: dict, after: dict) -> dict:
        self_ms = tracer.self_ms()
        firsts = sorted(self.speed.ms(reply.sent, reply.first_row)
                        for reply in replies if reply.first_row)
        rows = sum(reply.rows for reply in replies)
        streamed = [reply for reply in replies if reply.first_row]

        def delta(name: str) -> float:
            return sum(value - before.get(series, 0.0)
                       for series, value in after.items()
                       if series.startswith(name))

        hits = delta("repro_plan_cache_hits")
        misses = delta("repro_plan_cache_misses")
        return {
            "ttfr_p50_ms": percentile(firsts, 0.5),
            "server.ttfr_p95_ms": percentile(firsts, 0.95),
            "server.latency_p95_ms": rec.percentile_ms(0.95),
            "server.connect_us": mean(
                c.connect_seconds for c in connections) * 1e6,
            "server.head_ms": mean(self_ms.get("server.head", ())),
            "server.first_row_ms": mean(
                self_ms.get("server.first_row", ())),
            "server.body_ms": mean(self_ms.get("server.body", ())),
            "server.bytes_per_row": (
                sum(r.body_bytes for r in streamed)
                / max(1, sum(r.rows for r in streamed))),
            "server.rejected_429": delta("repro_http_rejected_total"),
            "server.cancelled_504": delta("repro_http_cancelled_total"),
            "service.plan_cache_hit_rate": (
                hits / (hits + misses) if hits + misses else 0.0),
            "rows_per_s": rows / rec.elapsed,
        }

    def replay(self, requests: list[Request], rec: Recorder,
               tracer) -> dict:
        """The same requests in process, through the calls the server's
        worker thread makes: compile, cached optimize, streamed
        execution drained into start-label rows.  What the wire adds
        on top — framing, admission, the cross-thread hand-off, NDJSON
        encoding, the socket — is ``server.residual_ms``."""
        from repro import Database

        database = Database.from_xml(self.xml)
        service = database.service
        for xpath in self.hot_queries:
            service.optimize_cached(database.compile(xpath), "DPP")
        replayed = Recorder(self.speed)
        hit_us, miss_ms, first_ms, drain_ms = [], [], [], []
        rows = 0
        for request in requests[:REPLAY_REQUESTS]:
            self.speed.sample()
            op = tracer.new_op()
            misses = service.cache.stats.misses
            start = clock()
            with tracer.span("replay", op):
                with tracer.span("xpath", op):
                    pattern = database.compile(request.xpath)
                compiled = clock()
                with tracer.span("service", op):
                    plan = service.optimize_cached(pattern, "DPP").plan
                planned = clock()
                with tracer.span("engine", op):
                    stream = database.stream_execute(plan, pattern)
                    first = None
                    for row in stream:
                        [region.start for region in row]
                        if first is None:
                            first = clock()
                        if (request.limit
                                and stream.produced >= request.limit):
                            stream.close()
                            break
            end = clock()
            replayed.op(request.kind, start, end)
            rows += stream.produced
            if service.cache.stats.misses > misses:
                miss_ms.append(self.speed.ms(compiled, planned))
            else:
                hit_us.append(self.speed.ms(compiled, planned) * 1e3)
            if first is not None:
                first_ms.append(self.speed.ms(planned, first))
                drain_ms.append(self.speed.ms(first, end))
        self.speed.sample()
        self_ms = tracer.self_ms()
        wire = rec.latency_p50_ms()
        inproc = replayed.latency_p50_ms()
        # the budget of a served request: the replay's layers, and the
        # wire's residual on top of them
        budget = {name: mean(self_ms[name])
                  for name in ("xpath", "service", "engine", "replay")}
        wire_mean = mean(self_ms["request"]) + sum(
            mean(self_ms[name]) for name in
            ("server.head", "server.first_row", "server.body"))
        self.budget = {"xpath": budget["xpath"],
                       "service": budget["service"],
                       "engine": budget["engine"] + budget["replay"],
                       "request": wire_mean - sum(budget.values())}
        engine_seconds = (sum(first_ms) + sum(drain_ms)) / 1e3
        return {
            "xpath.compile_us": mean(self_ms["xpath"]) * 1e3,
            "service.optimize_cached_hit_us": mean(hit_us),
            "service.optimize_cached_miss_ms": mean(miss_ms),
            "engine.stream_first_row_ms": mean(first_ms),
            "engine.stream_drain_ms": mean(drain_ms),
            "engine.rows_per_s_stream": (rows / engine_seconds
                                         if engine_seconds else 0.0),
            "server.replay_inproc_ms": inproc,
            "server.residual_ms": wire - inproc,
        }


class ServeStream(_Serve):
    name = "serve_stream"
    hot_queries = STREAM_QUERIES
    server_arguments = ("--tenant-rate", "0")  # quotas off

    async def _run(self, rec: Recorder, seconds: float, tracer) -> dict:
        """Rounds of four requests, two per connection, the speed
        sampled between rounds while nothing is in flight.  In a traced
        run every other round carries ``X-Trace-Id``."""
        connections = [await Connection(self.server.port).open()
                       for _ in range(self.connections)]
        traced = Recorder(self.speed)
        replies: list[Reply] = []
        issued: list[Request] = []
        try:
            before = await connections[0].metrics()
            begin = clock()
            deadline = begin + seconds
            rounds = 0
            while clock() < deadline:
                self.speed.sample()
                tracing = tracer is not None and rounds % 2 == 1
                order = [Request(xpath, True, 0, "bench", xpath)
                         for xpath in self.rng.sample(
                             STREAM_QUERIES, len(STREAM_QUERIES))]
                issued += order
                headers = ({"X-Trace-Id": f"perf-{rounds}"}
                           if tracing else None)
                done = await asyncio.gather(*(
                    self._sequence(connection, order[index::self.connections],
                                   traced if tracing else rec, tracer,
                                   headers)
                    for index, connection in enumerate(connections)))
                replies += [r for batch in done for r in batch if r]
                rounds += 1
            self.speed.sample()
            rec.set_window(begin, clock(), "closed")
            after = await connections[0].metrics()
        finally:
            for connection in connections:
                await connection.close()
        if tracer is None:
            return {}
        layers = self.wire_layers(rec, replies, connections, tracer,
                                  before, after)
        layers["obs.trace_overhead_ratio"] = (traced.latency_p50_ms()
                                              / rec.latency_p50_ms())
        layers.update(self.replay(issued, rec, tracer))
        rec.absorb(traced)
        return layers

    async def _sequence(self, connection, requests, rec, tracer,
                        headers) -> list:
        return [await self.issue(connection, request, rec, tracer,
                                 headers) for request in requests]


class ServeMixed(_Serve):
    name = "serve_mixed"
    connections = MIXED_TENANTS
    hot_queries = tuple(f"//{root}{rest}" for root, rest in MIXED_HOT)

    def schedule(self, seconds: float) -> list[Request]:
        """A fixed number of arrivals at uniform random instants (a
        Poisson process given its count), with exact shares of misses
        and first-page streams, every hot query equally often."""
        count = round(MIXED_RATE * seconds)
        rng = self.rng
        dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        miss = _exact_share(rng, count, MISS_SHARE)
        stream = _exact_share(rng, count, STREAM_SHARE)
        hot = [MIXED_HOT[i % len(MIXED_HOT)] for i in range(count)]
        rng.shuffle(hot)
        constants = rng.sample(range(10 ** 9), count)
        requests = []
        for index, due in enumerate(dues):
            root, rest = hot[index]
            xpath = kind = f"//{root}{rest}"
            if miss[index]:
                xpath = f"//{root}[@id != 'u{constants[index]}']{rest}"
                kind = "miss"
            kind += " first-page" if stream[index] else " buffered"
            requests.append(Request(
                xpath, stream[index], FIRST_PAGE if stream[index] else 0,
                f"t{index % MIXED_TENANTS}", kind, due))
        return requests

    async def _run(self, rec: Recorder, seconds: float, tracer) -> dict:
        """One dispatcher hands each request, when due, to the first
        free connection.  The speed is sampled before and after the
        window only: a sample taken between arrivals would hold the
        event loop for 5-20 ms and make the next requests late."""
        requests = self.schedule(seconds)
        for request in requests:  # oracle counts, before the clock runs
            self.expect(request.xpath)
        connections = [await Connection(self.server.port).open()
                       for _ in range(self.connections)]
        free: asyncio.Queue = asyncio.Queue()
        for connection in connections:
            free.put_nowait(connection)
        replies: list[Reply] = []
        lateness: list[float] = []

        async def serve(connection, request):
            try:
                reply = await self.issue(connection, request, rec, tracer)
                if reply is not None:
                    replies.append(reply)
                    lateness.append((reply.sent - request.due) * 1e3)
            finally:
                free.put_nowait(connection)

        try:
            before = await connections[0].metrics()
            self.speed.sample()
            begin = clock()
            tasks = []
            for request in requests:
                due = begin + request.due
                while clock() < due:
                    await asyncio.sleep(due - clock())
                connection = await free.get()
                tasks.append(asyncio.ensure_future(serve(
                    connection, replace(request, due=due))))
            await asyncio.gather(*tasks)
            end = clock()
            self.speed.sample()
            rec.set_window(begin, end, "open")
            after = await connections[0].metrics()
        finally:
            for connection in connections:
                await connection.close()
        if tracer is None:
            return {}
        layers = self.wire_layers(rec, replies, connections, tracer,
                                  before, after)
        late = percentile(sorted(lateness), 0.95)
        layers["server.generator_lateness_p95_ms"] = late
        if late > LATENESS_LIMIT_MS:
            print(f"perf: serve_mixed generator ran late (p95 "
                  f"{late:.2f} ms > {LATENESS_LIMIT_MS} ms): "
                  f"latencies include client-side queueing",
                  file=sys.stderr)
        layers.update(self.replay(requests, rec, tracer))
        return layers


def _exact_share(rng: random.Random, count: int, share: float) -> list:
    flags = [index < round(count * share) for index in range(count)]
    rng.shuffle(flags)
    return flags
