"""Tests for the asyncio HTTP query server (PR 10, hand-off PR 13).

Covers the admission arithmetic with an injected clock, the streamed
first-result path over real sockets, tenant throttling with honest
``Retry-After``, queue-depth backpressure, deadline cancellation
releasing its worker slot, the consolidated observability routes,
trace-id propagation, the shared shutdown path (SIGTERM drain in a
subprocess) — and the batched row hand-off: the NDJSON wire contract
chunk by chunk, streamed / buffered / in-process parity on one node
and two shards, and a stalled client throttling its producer.
"""

from __future__ import annotations

import asyncio
import io
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.api import Database
from repro.engine import blocks
from repro.engine.executor import StreamingExecution
from repro.obs.querylog import QueryLog, read_query_log
from repro.server import (AdmissionController, QueryServer,
                          ServerConfig, TokenBucket, app, fetch)
from repro.server.client import HttpClient
from repro.engine.tuples import PackedRows, flatten, row_shift
from repro.server.http import (ChunkedWriter, json_line, json_result,
                               json_rows, ndjson_rows)
from repro.workloads import personnel_document


# ---------------------------------------------------------------------------
# admission control: pure arithmetic, injected clock


class TestTokenBucket:
    def test_burst_then_exact_refill_wait(self):
        bucket = TokenBucket(rate=2.0, burst=1.0, now=100.0)
        assert bucket.try_take(100.0) == 0.0
        # drained: the next token exists in 1/rate = 0.5 seconds
        assert bucket.try_take(100.0) == pytest.approx(0.5)
        # half a token accrued after 0.25s -> 0.25s more to wait
        assert bucket.try_take(100.25) == pytest.approx(0.25)
        # after the full refill interval the take succeeds
        assert bucket.try_take(100.75) == 0.0

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=3.0, now=0.0)
        for _ in range(3):
            assert bucket.try_take(0.0) == 0.0
        assert bucket.try_take(0.0) > 0.0
        # an hour later the bucket holds burst tokens, not 36000
        for _ in range(3):
            assert bucket.try_take(3600.0) == 0.0
        assert bucket.try_take(3600.0) > 0.0


class TestAdmissionController:
    def make(self, **kwargs):
        clock = {"now": 0.0}
        controller = AdmissionController(
            clock=lambda: clock["now"], **kwargs)
        return controller, clock

    def test_tenant_quota_rejects_with_exact_retry(self):
        controller, _ = self.make(max_inflight=10, tenant_rate=2.0,
                                  tenant_burst=1.0)
        assert controller.admit("a") is None
        rejection = controller.admit("a")
        assert rejection is not None
        assert rejection.reason == "tenant_quota"
        assert rejection.retry_after == pytest.approx(0.5)
        assert rejection.tenant == "a"
        # tenants are isolated: b still has its burst
        assert controller.admit("b") is None

    def test_quota_recovers_as_the_clock_advances(self):
        controller, clock = self.make(max_inflight=10, tenant_rate=2.0,
                                      tenant_burst=1.0)
        assert controller.admit("a") is None
        assert controller.admit("a").reason == "tenant_quota"
        clock["now"] = 0.5
        assert controller.admit("a") is None

    def test_saturation_gate_and_release(self):
        controller, _ = self.make(max_inflight=2)
        assert controller.admit("a") is None
        assert controller.admit("b") is None
        rejection = controller.admit("c")
        assert rejection.reason == "saturated"
        assert rejection.retry_after == pytest.approx(0.5)  # default
        controller.release(seconds=2.0)
        assert controller.admit("c") is None
        # the retry hint now follows the observed service time
        rejection = controller.admit("d")
        assert rejection.reason == "saturated"
        assert rejection.retry_after == pytest.approx(2.0)

    def test_release_never_goes_negative(self):
        controller, _ = self.make(max_inflight=1)
        controller.release()
        controller.release()
        assert controller.inflight == 0
        assert controller.admit("a") is None
        assert controller.admit("b").reason == "saturated"

    def test_snapshot_counts(self):
        controller, _ = self.make(max_inflight=3, tenant_rate=100.0,
                                  tenant_burst=10.0)
        controller.admit("a")
        controller.admit("b")
        controller.release(seconds=0.1)
        snapshot = controller.snapshot()
        assert snapshot["inflight"] == 1
        assert snapshot["max_inflight"] == 3
        assert snapshot["tenants"] == 2
        assert snapshot["completed"] == 1


# ---------------------------------------------------------------------------
# the served query path over real sockets


@pytest.fixture(scope="module")
def server():
    database = Database.from_document(
        personnel_document(target_nodes=2000, seed=42))
    instance = QueryServer(database, ServerConfig(
        port=0, workers=2, queue_depth=2,
        tenant_rate=0.0,  # quota tests build their own controller
        keep_alive_seconds=30.0), out=io.StringIO())
    host, port = instance.start()
    yield instance, host, port
    instance.stop()
    assert instance.exit_code == 0


def run(coroutine):
    return asyncio.run(coroutine)


def stream_chunks(host, port, path):
    """One streamed request: the head and the body chunk by chunk."""
    async def drive():
        client = HttpClient(host, port)
        try:
            head, body = await client.stream("GET", path)
            return head, [chunk async for chunk in body]
        finally:
            await client.close()

    return run(drive())


def chunk_lines(chunk):
    """The NDJSON objects of one chunk; every line must be complete."""
    assert chunk.endswith(b"\n"), "a chunk ends on a line boundary"
    return [json.loads(line) for line in chunk.splitlines()]


def all_lines(chunks):
    return [line for chunk in chunks for line in chunk_lines(chunk)]


class TestQueryEndpoint:
    def test_plain_query_returns_bindings(self, server):
        _, host, port = server
        response = run(fetch(host, port, "GET",
                             "/query?xpath=//employee//name"))
        assert response.status == 200
        payload = response.json()
        assert payload["done"] is True
        assert payload["rows"] > 0
        assert payload["rows"] == len(payload["bindings"])
        assert payload["schema"]
        assert payload["time_to_first_seconds"] is not None
        assert payload["time_to_first_seconds"] <= payload["seconds"]

    def test_post_body_overrides_query_string(self, server):
        _, host, port = server
        body = json.dumps({"xpath": "//employee", "limit": 3}).encode()
        response = run(fetch(host, port, "POST", "/query?limit=999",
                             body=body))
        assert response.status == 200
        payload = response.json()
        assert payload["rows"] == 3
        assert payload["truncated"] is True

    def test_streamed_first_result_before_completion(self, server):
        """The tentpole acceptance: over HTTP, the first FP row is on
        the wire before the query finishes."""
        _, host, port = server
        head, chunks = stream_chunks(
            host, port, "/query?xpath=//employee//name&stream=1")
        assert head.status == 200
        assert "chunked" in head.headers["transfer-encoding"]
        lines = all_lines(chunks)
        assert lines[0]["schema"], "header line first"
        assert all("b" in line for line in lines[1:-1])
        summary = lines[-1]
        assert summary["done"] is True
        assert summary["cancelled"] is False
        assert summary["rows"] == len(lines) - 2
        assert summary["time_to_first_seconds"] is not None
        assert summary["time_to_first_seconds"] < summary["seconds"]

    def test_keep_alive_connection_reuse(self, server):
        _, host, port = server

        async def drive():
            client = HttpClient(host, port)
            try:
                first = await client.request(
                    "GET", "/query?xpath=//employee&limit=1")
                second = await client.request(
                    "GET", "/query?xpath=//manager&limit=1")
                return first, second
            finally:
                await client.close()

        first, second = run(drive())
        assert first.status == 200 and second.status == 200

    def test_bad_xpath_is_client_error(self, server):
        _, host, port = server
        response = run(fetch(host, port, "GET", "/query?xpath=///(("))
        assert response.status == 400
        assert "kind" in response.json()

    def test_missing_xpath_is_client_error(self, server):
        _, host, port = server
        response = run(fetch(host, port, "GET", "/query"))
        assert response.status == 400

    def test_a_deadline_that_is_no_finite_positive_number_is_refused(
            self, server):
        """NaN is no deadline: it passes a ``<= 0`` test, and a timer
        set to it fires at once.  Neither it nor an infinite or
        non-positive deadline runs a query; each is a 400 that burns
        no error budget."""
        _, host, port = server

        def errors():
            snapshot = run(fetch(host, port, "GET", "/slo")).json()
            return {entry["name"]: entry["bad"]
                    for entry in snapshot["objectives"]}["query_errors"]

        before = errors()
        for value in ("nan", "NaN", "inf", "-inf", "0", "-5"):
            for path, headers in (
                    (f"/query?xpath=//employee&timeout_ms={value}", None),
                    ("/query?xpath=//employee", {"X-Deadline-Ms": value})):
                response = run(fetch(host, port, "GET", path,
                                     headers=headers))
                assert response.status == 400, (value, response.json())
                assert "timeout_ms" in response.json()["error"]
        assert errors() == before
        ok = run(fetch(host, port, "GET",
                       "/query?xpath=//employee&limit=1&timeout_ms=5000"))
        assert ok.status == 200

    def test_unknown_route_is_404_and_method_checked(self, server):
        _, host, port = server
        assert run(fetch(host, port, "GET", "/nope")).status == 404
        assert run(fetch(host, port, "POST", "/metrics")).status == 405
        assert run(fetch(host, port, "PUT",
                         "/query?xpath=//a")).status == 405

    def test_trace_id_propagates_to_traces_route(self, server):
        _, host, port = server
        response = run(fetch(
            host, port, "GET", "/query?xpath=//employee//name",
            headers={"X-Trace-Id": "req-abc123"}))
        assert response.status == 200
        assert response.headers.get("x-trace-id") == "req-abc123"
        traces = run(fetch(host, port, "GET", "/traces")).json()
        ids = [trace["trace_id"] for trace in traces["traces"]]
        assert "req-abc123" in ids

    def test_observability_routes_share_the_socket(self, server):
        instance, host, port = server
        for route in ("/metrics", "/traces", "/slo", "/planspace",
                      "/healthz"):
            assert run(fetch(host, port, "GET", route)).status == 200
        metrics = run(fetch(host, port, "GET", "/metrics")).text()
        assert "repro_http_requests_total" in metrics
        assert "repro_http_inflight" in metrics
        assert "repro_time_to_first_seconds" in metrics
        assert "repro_slo_error_budget_burn" in metrics
        health = run(fetch(host, port, "GET", "/healthz")).json()
        assert health["status"] == "ok"
        assert health["max_inflight"] == instance.config.max_inflight


class TestAdmissionOverHttp:
    def test_tenant_quota_throttles_with_retry_after(self):
        database = Database.from_document(
            personnel_document(target_nodes=600, seed=42))
        instance = QueryServer(database, ServerConfig(
            port=0, workers=2, queue_depth=2,
            tenant_rate=0.5, tenant_burst=2.0), out=io.StringIO())
        host, port = instance.start()
        try:
            async def drive():
                statuses, throttle = [], None
                for _ in range(3):
                    response = await fetch(
                        host, port, "GET",
                        "/query?xpath=//employee&tenant=noisy")
                    statuses.append(response.status)
                    if response.status == 429:
                        throttle = response
                # the throttled tenant does not starve the others
                other = await fetch(
                    host, port, "GET",
                    "/query?xpath=//employee&tenant=quiet")
                return statuses, throttle, other

            statuses, throttle, other = run(drive())
            assert statuses[:2] == [200, 200]
            assert statuses[2] == 429
            payload = throttle.json()
            assert payload["reason"] == "tenant_quota"
            assert payload["tenant"] == "noisy"
            # header: RFC integral seconds, rounded up, never zero;
            # body: the exact wait (2 tokens burnt, 0.5/s refill)
            assert int(throttle.headers["retry-after"]) >= 1
            assert 0.0 < payload["retry_after_seconds"] <= 2.0
            assert other.status == 200
        finally:
            instance.stop()

    def test_queue_depth_backpressure_saturates(self, server):
        """Fill every admission slot; the next request is shed with
        429/saturated and a slot release lets traffic through again."""
        instance, host, port = server
        taken = 0
        while instance.admission.admit(f"probe{taken}") is None:
            taken += 1
        assert taken == instance.config.max_inflight
        try:
            response = run(fetch(host, port, "GET",
                                 "/query?xpath=//employee"))
            assert response.status == 429
            payload = response.json()
            assert payload["reason"] == "saturated"
            assert int(response.headers["retry-after"]) >= 1
            # observability is never shed
            health = run(fetch(host, port, "GET", "/healthz")).json()
            assert health["inflight"] == taken
        finally:
            for _ in range(taken):
                instance.admission.release()
        response = run(fetch(host, port, "GET",
                             "/query?xpath=//employee&limit=1"))
        assert response.status == 200

    def test_concurrent_overload_sheds_but_serves_some(self):
        database = Database.from_document(
            personnel_document(target_nodes=2000, seed=42))
        instance = QueryServer(database, ServerConfig(
            port=0, workers=1, queue_depth=1,
            tenant_rate=0.0), out=io.StringIO())
        host, port = instance.start()
        try:
            async def drive():
                return await asyncio.gather(*[
                    fetch(host, port, "GET",
                          "/query?xpath=//employee//name"
                          f"&tenant=t{i}")
                    for i in range(12)])

            responses = run(drive())
            statuses = sorted(r.status for r in responses)
            assert 200 in statuses
            assert 429 in statuses, statuses
            shed = [r.json() for r in responses if r.status == 429]
            assert all(s["reason"] == "saturated" for s in shed)
        finally:
            instance.stop()
        assert instance.admission.snapshot()["inflight"] == 0


class TestDeadlines:
    def test_deadline_cancels_mid_stream_and_releases_slot(
            self, monkeypatch):
        database = Database.from_document(
            personnel_document(target_nodes=4000, seed=42))
        instance = QueryServer(database, ServerConfig(
            port=0, workers=2, queue_depth=2,
            tenant_rate=0.0), out=io.StringIO())
        host, port = instance.start()
        try:
            baseline = run(fetch(
                host, port, "GET", "/query?xpath=//employee//name"))
            assert baseline.status == 200
            # the producer is held after its first block until the
            # consumer hangs up, so cancellation strikes mid-execution
            # however fast the run is
            hold_producers(monkeypatch, database, after_blocks=1)

            slo_before = run(fetch(host, port, "GET", "/slo")).json()
            response = run(fetch(
                host, port, "GET",
                f"/query?xpath=//employee//name"
                f"&timeout_ms={MID_STREAM_DEADLINE_MS}"))
            assert response.status == 504
            payload = response.json()
            assert payload["cancelled"] is True
            assert payload["error"] == "deadline exceeded"

            # the worker slot came back and the error burnt budget
            health = run(fetch(host, port, "GET", "/healthz")).json()
            assert health["inflight"] == 0
            slo_after = run(fetch(host, port, "GET", "/slo")).json()

            def bad(snapshot):
                return {entry["name"]: entry["bad"]
                        for entry in snapshot["objectives"]}

            assert (bad(slo_after)["query_errors"]
                    > bad(slo_before)["query_errors"])
            metrics = run(fetch(host, port, "GET", "/metrics")).text()
            assert "repro_http_cancelled_total" in metrics
        finally:
            instance.stop()

    def test_streamed_deadline_reports_in_band(self):
        database = Database.from_document(
            personnel_document(target_nodes=4000, seed=42))
        instance = QueryServer(database, ServerConfig(
            port=0, workers=2, queue_depth=2,
            tenant_rate=0.0), out=io.StringIO())
        host, port = instance.start()
        try:
            head, chunks = stream_chunks(
                host, port, "/query?xpath=//employee//name"
                            "&stream=1&timeout_ms=0.01")
            if head.status == 504:
                # the deadline beat the head: a clean status response
                summary, delivered = json.loads(b"".join(chunks)), 0
            else:
                lines = all_lines(chunks)
                summary, delivered = lines[-1], len(lines) - 2
            assert summary["cancelled"] is True
            # rows counts what was delivered, not what was produced
            assert summary["rows"] == delivered
            health = run(fetch(host, port, "GET", "/healthz")).json()
            assert health["inflight"] == 0
        finally:
            instance.stop()

    def test_a_deadline_makes_no_task_per_request(self, server):
        """A request on a kept-alive connection is read, timed and
        answered in the connection's own task: its deadline is a
        timer, not an ``asyncio.wait_for`` (which makes a task of its
        own on Python < 3.12).  Counted through the loop's task
        factory, every task the loop makes for any reason."""
        instance, host, port = server
        loop = instance._loop
        made = []

        def counting(loop, coro, **kwargs):
            made.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        def install(factory):
            done = threading.Event()
            loop.call_soon_threadsafe(
                lambda: (loop.set_task_factory(factory), done.set()))
            assert done.wait(5.0)

        async def drive():
            client = HttpClient(host, port)
            try:
                response = await client.request(
                    "GET", "/query?xpath=//employee//name")
                assert response.status == 200
                del made[:]  # the connection's own task is made once
                for extra in ("", "&stream=1", "&limit=3",
                              "&timeout_ms=20000") * 2:
                    response = await client.request(
                        "GET", "/query?xpath=//employee//name" + extra)
                    assert response.status == 200
            finally:
                await client.close()

        install(counting)
        try:
            run(drive())
        finally:
            install(None)
        assert made == []


def capture_streams(monkeypatch, database, engine=""):
    """Every ``StreamingExecution`` the server opens from here on —
    on *engine*, given one: no request can name it, so a drill says it
    where plan-level callers do, on ``stream_execute``."""
    captured = []
    original = database.stream_execute

    def recording(*args, **kwargs):
        if engine:
            kwargs["engine"] = engine
        stream = original(*args, **kwargs)
        captured.append(stream)
        return stream

    monkeypatch.setattr(database, "stream_execute", recording)
    return captured


#: notified whenever a drill's waits may be over: a producer pulled a
#: block, a stream finished, a consumer hung up, a slot was released
PROGRESS = threading.Condition()


def _notify_progress():
    with PROGRESS:
        PROGRESS.notify_all()


@pytest.fixture(autouse=True)
def progress_events(monkeypatch):
    """Every change a drill waits for notifies :data:`PROGRESS`, so
    the waits below sleep on it instead of polling."""
    def after(cls, name):
        original = getattr(cls, name)

        def notifying(self, *args, **kwargs):
            try:
                return original(self, *args, **kwargs)
            finally:
                _notify_progress()

        monkeypatch.setattr(cls, name, notifying)

    after(StreamingExecution, "_check_cancel")  # once per block
    after(StreamingExecution, "_finish")
    after(app._Handoff, "hang_up")
    after(AdmissionController, "release")


def hold_producers(monkeypatch, database, after_blocks=0):
    """From here on a run's cancel predicate answers only once it is
    true: its producer, however fast, cannot get past block
    ``after_blocks + 1`` before the consumer has hung up (the first
    *after_blocks* blocks pass as usual)."""
    original = database.stream_execute

    def held(*args, cancel, **kwargs):
        passed = []

        def hung_up():
            if len(passed) < after_blocks:
                passed.append(None)
                return cancel()
            wait_until(cancel)
            return True

        return original(*args, cancel=hung_up, **kwargs)

    monkeypatch.setattr(database, "stream_execute", held)


#: the deadline of the mid-stream drills: far longer than a held
#: producer needs to put its first block on the wire, and the only
#: wait such a drill has
MID_STREAM_DEADLINE_MS = 1000


def wait_until(condition, seconds=10.0):
    """Block until *condition* holds, asking it again at each
    :data:`PROGRESS` notification."""
    with PROGRESS:
        assert PROGRESS.wait_for(condition, seconds), \
            "condition never held"


def wait_until_stalled(stream, quiet=0.4):
    """Block until ``stream.produced`` has not moved for *quiet*
    seconds, looking again at each :data:`PROGRESS` notification;
    returns where it stopped."""
    deadline = time.monotonic() + 10.0
    with PROGRESS:
        produced, since = stream.produced, time.monotonic()
        while (left := since + quiet - time.monotonic()) > 0:
            assert time.monotonic() < deadline, "producer never stalled"
            PROGRESS.wait(left)
            if stream.produced != produced:
                produced, since = stream.produced, time.monotonic()
    return produced


class TestRowBatches:
    def test_batch_encoder_matches_the_per_row_reference(self):
        """A packed block's NDJSON is ``json.dumps({"b": list(row)})``
        per row at every width, on a node's blocks (row ints, and the
        label array they flatten to) and a fleet's (the same label
        array, packed from label rows), at both ends of the label
        range, and on a block a limit cut; a buffered body's
        ``bindings`` spliced from the same blocks is ``json_line`` of
        them as lists, whatever its strings hold."""
        edges = [0, 2**32 - 1, 1, 4096, 2**31]
        for width in range(1, 10):
            rows = [tuple(edges[(row + column) % len(edges)]
                          for column in range(width))
                    for row in range(300)]
            ints = [sum(label << row_shift(width, column)
                        for column, label in enumerate(row))
                    for row in rows]
            node = PackedRows.of_ints(ints, width)
            flat = PackedRows(flatten(ints, width), width)
            fleet = PackedRows.of_tuples(rows, width)
            for cut in (len(rows), len(rows) - 7, 1, 0):
                reference = "".join(json.dumps({"b": list(row)}) + "\n"
                                    for row in rows[:cut]).encode()
                for block in (node, flat, fleet):
                    assert ndjson_rows(block[:cut]) == reference, width
                summary = {"query": "//a[@b='\"bindings\": []']",
                           "rows": cut, "schema": list(range(width))}
                assert json_result(summary, [
                    json_rows(node[:cut // 2]), json_rows(node[:0]),
                    json_rows(fleet[cut // 2:cut])]) == json_line(
                        {**summary, "bindings": [list(row)
                                                 for row in rows[:cut]]})

    def test_wire_contract_chunk_by_chunk(self, server, monkeypatch):
        """Schema alone in the first chunk, the first row alone in
        the second, engine blocks of the cap after it, the summary
        alone in the last — over a result many caps long."""
        _, host, port = server
        monkeypatch.setattr(blocks, "BLOCK_ROWS", 16)
        head, chunks = stream_chunks(
            host, port, "/query?xpath=//employee//name&stream=1")
        assert head.status == 200
        parsed = [chunk_lines(chunk) for chunk in chunks]
        assert len(parsed[0]) == 1 and parsed[0][0]["schema"]
        assert len(parsed[-1]) == 1 and parsed[-1][0]["done"] is True
        row_chunks = parsed[1:-1]
        assert all(set(line) == {"b"}
                   for lines in row_chunks for line in lines)
        sizes = [len(lines) for lines in row_chunks]
        total = sum(sizes)
        assert total > 10 * 16, "result must dwarf the cap"
        assert sizes[0] == 1
        assert set(sizes[1:-1]) == {16}, "no ramp: a chunk is a block"
        assert 1 <= sizes[-1] <= 16
        assert parsed[-1][0]["rows"] == total
        assert parsed[-1][0]["truncated"] is False

    def test_empty_result_is_exactly_two_chunks(self, server):
        _, host, port = server
        head, chunks = stream_chunks(
            host, port, "/query?xpath=//employee//os&stream=1")
        assert head.status == 200
        assert len(chunks) == 2
        assert chunk_lines(chunks[0])[0]["schema"]
        summary = chunk_lines(chunks[1])[0]
        assert summary["rows"] == 0
        assert summary["time_to_first_seconds"] is None

    def test_response_head_rides_with_the_first_chunk(self):
        """``StreamWriter.write`` on an idle transport is a ``send``:
        the head must not cost one of its own.  An empty result is
        exactly two transport writes — head + schema, summary +
        terminator — and ``started`` still flips in ``start``."""
        class RecordingWriter:
            def __init__(self):
                self.writes = []

            def write(self, data):
                self.writes.append(data)

            async def drain(self):
                pass

        async def drive():
            writer = RecordingWriter()
            chunked = ChunkedWriter(writer)
            chunked.start(200, extra_headers={"X-Trace-Id": "t"})
            assert chunked.started and writer.writes == []
            await chunked.send(b'{"schema": [0]}\n')
            await chunked.finish(b'{"done": true}\n')
            await chunked.finish(b"ignored")
            return writer.writes

        head_and_schema, summary_and_end = run(drive())
        head, _, first_chunk = head_and_schema.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Transfer-Encoding: chunked" in head
        assert b"X-Trace-Id: t" in head
        assert first_chunk == b'10\r\n{"schema": [0]}\n\r\n'
        assert summary_and_end == b'f\r\n{"done": true}\n\r\n0\r\n\r\n'

        async def only_finish():
            writer = RecordingWriter()
            chunked = ChunkedWriter(writer)
            chunked.start(504)
            await chunked.finish()
            return writer.writes

        (whole,) = run(only_finish())
        assert whole.startswith(b"HTTP/1.1 504 ")
        assert whole.endswith(b"\r\n\r\n0\r\n\r\n")

    @pytest.mark.parametrize("limit", [1, 16, 17, 100])
    def test_limit_is_exact_off_a_batch_boundary(self, server,
                                                 monkeypatch, limit):
        """cap 16: limit 1 is the first block, 17 the end of the
        second (1 + cap), 16 and 100 end mid-block."""
        _, host, port = server
        monkeypatch.setattr(blocks, "BLOCK_ROWS", 16)
        _, chunks = stream_chunks(
            host, port,
            f"/query?xpath=//employee//name&stream=1&limit={limit}")
        lines = all_lines(chunks)
        assert len(lines) - 2 == limit
        assert lines[-1]["rows"] == limit
        assert lines[-1]["truncated"] is True
        buffered = run(fetch(
            host, port, "GET",
            f"/query?xpath=//employee//name&limit={limit}")).json()
        assert buffered["rows"] == limit == len(buffered["bindings"])
        assert buffered["truncated"] is True
        assert buffered["bindings"] == [line["b"]
                                        for line in lines[1:-1]]

    def test_a_limited_page_builds_one_row_past_it(self, server,
                                                  monkeypatch):
        """``limit=20`` asks the engine for 21 rows as its first
        block — the page and the row that says it is truncated — not
        one row and then a whole ``BLOCK_ROWS`` block (257 rows)."""
        instance, host, port = server
        streams = capture_streams(monkeypatch, instance.database)
        _, chunks = stream_chunks(
            host, port, "/query?xpath=//employee&stream=1&limit=20")
        lines = all_lines(chunks)
        assert len(lines) - 2 == 20 and lines[-1]["truncated"] is True
        total = run(fetch(host, port, "GET",
                          "/query?xpath=//employee")).json()["rows"]
        assert total == 478
        assert streams[0].produced == 21
        assert streams[0].finished and not streams[0].exhausted

    @pytest.mark.parametrize("engine", ["", "block", "tuple"])
    def test_limit_is_exact_across_block_boundaries(self, server,
                                                    monkeypatch, engine):
        """``limit`` is a slice of the last block, at the real cap:
        the whole first block, the first row of the second, its last
        but one, its last (1 + cap: a block boundary with more to
        come) — and a limit the result just fits is no truncation."""
        instance, host, port = server
        database = instance.database
        streams = capture_streams(monkeypatch, database, engine)
        log = QueryLog(None)
        database.attach_query_log(log)
        path = "/query?xpath=//employee//name"

        def serve(stream, limit):
            """(row lines on the wire, the summary) of one request."""
            if not stream:
                summary = run(fetch(host, port, "GET",
                                    f"{path}&limit={limit}")).json()
                return len(summary["bindings"]), summary
            _, chunks = stream_chunks(
                host, port, f"{path}&stream=1&limit={limit}")
            lines = all_lines(chunks)
            return len(lines) - 2, lines[-1]

        try:
            total = serve(False, 0)[1]["rows"]
            assert total > blocks.BLOCK_ROWS + 1
            assert len(log.records()) == 1
            for stream in (False, True):
                for limit in (1, 2, blocks.BLOCK_ROWS,
                              blocks.BLOCK_ROWS + 1):
                    delivered, summary = serve(stream, limit)
                    assert delivered == summary["rows"] == limit
                    assert summary["truncated"] is True
                    assert not streams[-1].exhausted
                    assert streams[-1].finished
                    assert streams[-1].engine == (engine or "block")
                for limit in (total, total + 1):
                    delivered, summary = serve(stream, limit)
                    assert delivered == summary["rows"] == total
                    assert summary["truncated"] is False
                    assert streams[-1].exhausted
            # only the runs read to their end were logged
            assert len(log.records()) == 1 + 2 * 2
        finally:
            database.attach_query_log(None)

    def test_buffered_result_body_is_one_compact_line(self, server):
        _, host, port = server
        response = run(fetch(host, port, "GET",
                             "/query?xpath=//employee//name"))
        assert response.text().count("\n") == 1
        # the bodies people read stay pretty-printed
        assert run(fetch(host, port, "GET",
                         "/query?xpath=///((")).text().count("\n") > 1
        assert run(fetch(host, port, "GET",
                         "/healthz")).text().count("\n") > 1

    def test_rows_and_batches_are_counted(self, server):
        instance, host, port = server

        def counters():
            return (instance._http_rows.value(),
                    instance._http_batches.value())

        rows_before, batches_before = counters()
        payload = run(fetch(host, port, "GET",
                            "/query?xpath=//employee//name")).json()
        rows_after, batches_after = counters()
        assert rows_after - rows_before == payload["rows"]
        # one hand-off per engine block: the first row, then the cap
        assert batches_after - batches_before == 1 + math.ceil(
            (payload["rows"] - 1) / blocks.BLOCK_ROWS)
        metrics = run(fetch(host, port, "GET", "/metrics")).text()
        for family in ("repro_http_rows_total",
                       "repro_http_row_batches_total",
                       "repro_http_backpressure_waits_total"):
            assert f"# TYPE {family} counter" in metrics


    def test_concurrent_streams_lose_no_rows(self, server,
                                             monkeypatch):
        """More producers than cores, tiny batches, a 10 us switch
        interval: every hand-off races the loop, and every reply must
        still be the whole result, in order."""
        _, host, port = server
        monkeypatch.setattr(blocks, "BLOCK_ROWS", 4)
        path = "/query?xpath=//employee//name&stream=1"
        expected = run(fetch(host, port, "GET", path)).body

        async def drive():
            return await asyncio.gather(*[
                fetch(host, port, "GET", path) for _ in range(4)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            replies = [reply for _ in range(5) for reply in run(drive())]
        finally:
            sys.setswitchinterval(interval)

        def rows(body):
            return body.splitlines()[1:-1]

        assert len(rows(expected)) > 100
        assert all(reply.status == 200 for reply in replies)
        assert all(rows(reply.body) == rows(expected)
                   for reply in replies)


def count_handoffs(monkeypatch):
    """Every item a producer hands to the loop from here on."""
    items = []
    put = app._Handoff.put

    def counting(handoff, item):
        items.append(item)
        put(handoff, item)

    monkeypatch.setattr(app._Handoff, "put", counting)
    return items


def watch_pool_jobs(monkeypatch, instance):
    """The pool jobs the loop waits for from here on: waiting on a
    ``concurrent.futures.Future`` from a loop registers a callback."""
    awaited = []
    submit = instance._executor.submit

    def watched(*args, **kwargs):
        job = submit(*args, **kwargs)
        add_done_callback = job.add_done_callback

        def recording(callback):
            awaited.append(job)
            add_done_callback(callback)

        job.add_done_callback = recording
        return job

    monkeypatch.setattr(instance._executor, "submit", watched)
    return awaited


def fail_after_first_block(monkeypatch, database):
    """From here on a run raises once its first block is out."""
    original = database.stream_execute

    def failing(*args, cancel, **kwargs):
        pulls = []

        def check():
            pulls.append(None)
            if len(pulls) > 1:
                raise RuntimeError("the run failed after its head")
            return cancel()

        return original(*args, cancel=check, **kwargs)

    monkeypatch.setattr(database, "stream_execute", failing)


class TestHandoffWakeUps:
    """A streamed response of k blocks is k + 1 hand-offs, each one
    cross-thread wake-up: the head, then the blocks, the end riding on
    the last.  A hand-off of its own for the end and a loop that
    awaits the pool job's future would make it k + 3."""

    PATH = "/query?xpath=//employee//name"

    def blocks_of(self, rows):
        return 1 + math.ceil((rows - 1) / blocks.BLOCK_ROWS)

    def test_k_blocks_are_k_plus_one_hand_offs(self, server,
                                               monkeypatch):
        instance, host, port = server
        total = run(fetch(host, port, "GET", self.PATH)).json()["rows"]
        assert (total - 1) % blocks.BLOCK_ROWS, "the last block is short"
        items = count_handoffs(monkeypatch)
        _, chunks = stream_chunks(host, port, self.PATH + "&stream=1")
        k = self.blocks_of(total)
        assert k > 1 and len(chunks) == k + 2
        assert len(items) == k + 1
        assert items[0] is app._HEAD
        assert [item[2] for item in items[1:]] == [False] * (k - 1) + [True]
        assert sum(item[0] for item in items[1:]) == total
        # a buffered response has no head to hand over
        del items[:]
        assert run(fetch(host, port, "GET",
                         self.PATH)).json()["rows"] == total
        assert len(items) == k and items[-1][2] is True

    def test_an_empty_result_is_two_hand_offs(self, server,
                                              monkeypatch):
        _, host, port = server
        items = count_handoffs(monkeypatch)
        _, chunks = stream_chunks(host, port,
                                  "/query?xpath=//employee//os&stream=1")
        assert len(chunks) == 2
        assert items == [app._HEAD, (0, b"", True)]

    def test_a_result_ending_on_a_block_boundary_hands_the_end_alone(
            self, server, monkeypatch):
        """A full block may not be the last, so it leaves at once;
        when it was, the end follows it alone: k + 2."""
        _, host, port = server
        total = run(fetch(host, port, "GET", self.PATH)).json()["rows"]
        monkeypatch.setattr(blocks, "BLOCK_ROWS", total - 1)
        items = count_handoffs(monkeypatch)
        lines = all_lines(stream_chunks(host, port,
                                        self.PATH + "&stream=1")[1])
        assert lines[-1]["rows"] == total == len(lines) - 2
        assert [item[:1] + item[2:] for item in items[1:]] \
            == [(1, False), (total - 1, False), (0, True)]

    def test_a_normal_finish_never_waits_for_the_pool_job(
            self, server, monkeypatch):
        instance, host, port = server
        awaited = watch_pool_jobs(monkeypatch, instance)
        for extra in ("&stream=1", "", "&stream=1&limit=5", "&limit=5"):
            response = run(fetch(host, port, "GET", self.PATH + extra))
            assert response.status == 200
        run(fetch(host, port, "GET", "/query?xpath=///(("))
        assert awaited == []
        # a consumer that hung up before the last hand-off waits for
        # its producer to close the stream
        hold_producers(monkeypatch, instance.database, after_blocks=1)
        response = run(fetch(
            host, port, "GET",
            f"{self.PATH}&timeout_ms={MID_STREAM_DEADLINE_MS}"))
        assert response.status == 504
        (job,) = awaited
        assert job.done()

    def test_an_error_after_the_head_still_ends_the_response(
            self, server, monkeypatch):
        instance, host, port = server
        errors = instance.service.snapshot()["errors"]
        fail_after_first_block(monkeypatch, instance.database)
        head, chunks = stream_chunks(host, port, self.PATH + "&stream=1")
        assert head.status == 200
        lines = all_lines(chunks)
        assert lines[-1] == {"done": True, "rows": 1,
                             "error": "the run failed after its head",
                             "seconds": lines[-1]["seconds"]}
        assert len(lines) == 3 and set(lines[1]) == {"b"}
        buffered = run(fetch(host, port, "GET", self.PATH))
        assert buffered.status == 500
        assert buffered.json() == {"error": "the run failed after its head",
                                   "kind": "RuntimeError"}
        assert instance.service.snapshot()["errors"] == errors + 2
        wait_until(lambda: instance.admission.snapshot()["inflight"] == 0)


def served_rows(host, port, xpath, limit=0):
    """(streamed rows, buffered bindings, schema) of one query."""
    suffix = f"&limit={limit}" if limit else ""
    _, chunks = stream_chunks(
        host, port, f"/query?xpath={xpath}&stream=1{suffix}")
    lines = all_lines(chunks)
    buffered = run(fetch(host, port, "GET",
                         f"/query?xpath={xpath}{suffix}")).json()
    assert lines[0]["schema"] == buffered["schema"]
    assert lines[-1]["rows"] == buffered["rows"] == len(lines) - 2
    return ([line["b"] for line in lines[1:-1]],
            buffered["bindings"], buffered["schema"])


def in_process_rows(database, xpath, schema):
    """Start labels of ``Database.query``, columns in *schema* order."""
    execution = database.query(xpath).execution
    order = [execution.schema.node_ids.index(node) for node in schema]
    return sorted([row[index].start for index in order]
                  for row in execution.tuples)


class TestHandoffParity:
    """Streamed rows == buffered bindings == in-process execution."""

    QUERIES = ("//employee//name",
               "//manager[./employee/name][./department/name]")

    @pytest.mark.parametrize("xpath", QUERIES)
    def test_single_node(self, server, xpath):
        instance, host, port = server
        streamed, buffered, schema = served_rows(host, port, xpath)
        assert streamed == buffered
        assert sorted(streamed) == in_process_rows(
            instance.database, xpath, schema)
        page, buffered_page, _ = served_rows(host, port, xpath,
                                             limit=37)
        assert page == buffered_page == streamed[:37]

    def test_two_shards(self):
        from repro.shard.sharded import ShardedDatabase

        document = personnel_document(target_nodes=1500, seed=42)
        single = Database.from_document(document)
        with ShardedDatabase(document, shards=2) as database:
            instance = QueryServer(database, ServerConfig(
                port=0, tenant_rate=0.0), out=io.StringIO())
            host, port = instance.start()
            try:
                for xpath in self.QUERIES:
                    streamed, buffered, schema = served_rows(
                        host, port, xpath)
                    assert streamed == buffered
                    assert sorted(streamed) == in_process_rows(
                        single, xpath, schema)
                    page, buffered_page, _ = served_rows(
                        host, port, xpath, limit=37)
                    assert page == buffered_page == streamed[:37]
            finally:
                instance.stop()


class StallingClient:
    """A blocking raw-socket client with a small receive buffer that
    reads only when told to — the slow client of the drills."""

    def __init__(self, host, port):
        self.sock = socket.socket()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self.sock.settimeout(15.0)
        self.sock.connect((host, port))
        self.received = b""

    def request(self, path):
        self.sock.sendall(f"GET {path} HTTP/1.1\r\n"
                          f"Host: test\r\n\r\n".encode())

    def read_until(self, marker):
        """Read up to *marker*; False if the server hung up first."""
        while marker not in self.received:
            try:
                data = self.sock.recv(65536)
            except ConnectionError:
                return False
            if not data:
                return False
            self.received += data
        return True

    def body_lines(self):
        """The NDJSON objects of the complete chunked body."""
        _, _, body = self.received.partition(b"\r\n\r\n")
        payload = b""
        while True:
            size, _, body = body.partition(b"\r\n")
            if int(size, 16) == 0:
                break
            payload += body[:int(size, 16)]
            body = body[int(size, 16) + 2:]
        return [json.loads(line) for line in payload.splitlines()]

    def close(self):
        self.sock.close()


def start_big_server(**config):
    """A result far larger than every buffer between the producer
    and a stalled client: ~19.7k rows, ~430 kB of NDJSON."""
    database = Database.from_document(
        personnel_document(target_nodes=20000, seed=42))
    instance = QueryServer(database, ServerConfig(
        port=0, tenant_rate=0.0, **config), out=io.StringIO())
    host, port = instance.start()
    # accepted sockets inherit the listener's (small) send buffer, so
    # the kernel cannot hide the stall from the transport for long
    for listener in instance._server.sockets:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    return instance, host, port


@pytest.fixture(scope="class")
def big_server():
    instance, host, port = start_big_server(workers=2, queue_depth=2)
    yield instance, host, port
    instance.stop()


class TestBackPressure:
    XPATH = "//manager//name"
    #: what the transport (64 KiB high-water mark) and the two kernel
    #: socket buffers can hold beyond the hand-off, in rows of >= 15 B
    BUFFERED_ROWS = (64 * 1024 + 2 * 64 * 1024) // 15

    def total_rows(self, host, port):
        return run(fetch(host, port, "GET",
                         f"/query?xpath={self.XPATH}")).json()["rows"]

    def test_first_row_is_on_the_wire_before_the_producer_is_done(
            self, big_server, monkeypatch):
        instance, host, port = big_server
        total = self.total_rows(host, port)
        streams = capture_streams(monkeypatch, instance.database)
        client = StallingClient(host, port)
        try:
            client.request(f"/query?xpath={self.XPATH}&stream=1")
            assert client.read_until(b'{"b": ')
            stream = streams[0]
            assert not stream.finished
            assert stream.produced < total
            assert client.read_until(b"\r\n0\r\n\r\n")
            assert client.body_lines()[-1]["rows"] == total
        finally:
            client.close()

    def test_stalled_client_throttles_the_producer(self, big_server,
                                                   monkeypatch):
        instance, host, port = big_server
        total = self.total_rows(host, port)
        bound = ((app.HANDOFF_DEPTH + 1) * blocks.BLOCK_ROWS
                 + self.BUFFERED_ROWS)
        assert total > 1.2 * bound, "result must not fit the buffers"
        streams = capture_streams(monkeypatch, instance.database)
        waits = instance._http_backpressure.value()
        client = StallingClient(host, port)
        try:
            client.request(f"/query?xpath={self.XPATH}&stream=1")
            assert client.read_until(b'{"b": ')  # the head, then stall
            stream = streams[0]
            produced = wait_until_stalled(stream)
            assert produced <= bound
            assert not stream.finished
            assert instance._http_backpressure.value() > waits
            # a stalled request is observable, and holds one slot
            health = run(fetch(host, port, "GET", "/healthz")).json()
            assert health["inflight"] == 1
            # the client reads again: the exact result, nothing lost
            assert client.read_until(b"\r\n0\r\n\r\n")
            lines = client.body_lines()
            assert len(lines) - 2 == total
            assert lines[-1]["rows"] == total
            assert lines[-1]["cancelled"] is False
            assert stream.produced == total
        finally:
            client.close()

    def test_deadline_mid_stream_counts_rows_delivered(
            self, big_server, monkeypatch):
        """A deadline landing mid-batch: the terminal line's ``rows``
        is the number of row lines on the wire, not what the engine
        had produced by then.  The producer is held after its first
        block until the deadline fires, so the deadline lands
        mid-stream however fast the stream runs."""
        instance, host, port = big_server
        path = f"/query?xpath={self.XPATH}&stream=1"
        _, chunks = stream_chunks(host, port, path)
        full = chunk_lines(chunks[-1])[0]
        hold_producers(monkeypatch, instance.database, after_blocks=1)
        head, chunks = stream_chunks(
            host, port, f"{path}&timeout_ms={MID_STREAM_DEADLINE_MS}")
        assert head.status == 200, "the stream had started"
        lines = all_lines(chunks)
        summary = lines[-1]
        assert summary["cancelled"] is True
        assert summary["truncated"] is False
        assert summary["rows"] == len(lines) - 2
        assert 0 < summary["rows"] < full["rows"]

    def test_server_drain_wakes_a_blocked_producer(self, monkeypatch):
        instance, host, port = start_big_server(drain_seconds=0.5)
        streams = capture_streams(monkeypatch, instance.database)
        client = StallingClient(host, port)
        try:
            client.request(f"/query?xpath={self.XPATH}&stream=1")
            assert client.read_until(b'{"b": ')
            wait_until_stalled(streams[0])
            assert not streams[0].finished
            began = time.monotonic()
            instance.stop()  # joins the loop and the worker threads
            assert time.monotonic() - began < 5.0
            assert not instance._thread.is_alive()
            assert streams[0].finished and streams[0].cancelled
            assert instance.admission.snapshot()["inflight"] == 0
        finally:
            client.close()
            instance.stop()

    def test_deadline_frees_a_blocked_producer_and_its_slot(
            self, big_server, monkeypatch):
        instance, host, port = big_server
        streams = capture_streams(monkeypatch, instance.database)
        cancelled = instance._http_cancelled.value()
        client = StallingClient(host, port)
        try:
            client.request(f"/query?xpath={self.XPATH}&stream=1"
                           f"&timeout_ms=1500")
            assert client.read_until(b'{"b": ')
            stream = streams[0]
            wait_until_stalled(stream)
            assert not stream.finished
            assert instance.admission.snapshot()["inflight"] == 1
            # the deadline fires with the producer blocked on the
            # hand-off and the consumer blocked on the client
            wait_until(lambda: instance.admission.snapshot()
                       ["inflight"] == 0)
            assert instance._http_cancelled.value() == cancelled + 1
            wait_until(lambda: stream.finished)
            assert stream.cancelled
            metrics = run(fetch(host, port, "GET", "/metrics")).text()
            assert "repro_http_inflight 0" in metrics
            # the next request is served
            response = run(fetch(host, port, "GET",
                                 "/query?xpath=//employee&limit=5"))
            assert response.status == 200
            assert response.json()["rows"] == 5
            # the slow client finds its connection dropped, without
            # a terminal line claiming rows it was never sent
            assert not client.read_until(b"\r\n0\r\n\r\n")
        finally:
            client.close()


@pytest.mark.parametrize("engine", ["", "block", "tuple"])
class TestDrillsPerEngine:
    """The cancellation drills behind either engine (and the run path
    as served, ``""``): whichever operators feed the hand-off, a
    deadline or a hang-up ends the request typed, stops the producer
    within a block and leaks nothing."""

    XPATH = TestBackPressure.XPATH

    @pytest.fixture(autouse=True)
    def pinned(self, big_server, monkeypatch, engine):
        capture_streams(monkeypatch, big_server[0].database, engine)

    def path(self, extra=""):
        return f"/query?xpath={self.XPATH}{extra}"

    @staticmethod
    def assert_nothing_leaked(instance, host, port):
        wait_until(lambda: instance.admission.snapshot()
                   ["inflight"] == 0)
        metrics = run(fetch(host, port, "GET", "/metrics")).text()
        assert "repro_http_inflight 0" in metrics
        assert "repro_buffer_pool_pinned_pages 0" in metrics

    def test_a_deadline_nothing_can_meet(self, big_server):
        instance, host, port = big_server
        response = run(fetch(host, port, "GET",
                             self.path("&timeout_ms=0.01")))
        assert response.status == 504
        assert response.json()["cancelled"] is True
        assert response.json()["error"] == "deadline exceeded"
        head, chunks = stream_chunks(
            host, port, self.path("&stream=1&timeout_ms=0.01"))
        if head.status == 504:  # the deadline beat the head
            summary, delivered = json.loads(b"".join(chunks)), 0
        else:
            lines = all_lines(chunks)
            summary, delivered = lines[-1], len(lines) - 2
        assert summary["cancelled"] is True
        assert summary["rows"] == delivered
        self.assert_nothing_leaked(instance, host, port)

    def test_deadline_mid_stream(self, big_server, monkeypatch, engine):
        instance, host, port = big_server
        _, chunks = stream_chunks(host, port, self.path("&stream=1"))
        full = chunk_lines(chunks[-1])[0]
        streams = capture_streams(monkeypatch, instance.database)
        hold_producers(monkeypatch, instance.database, after_blocks=1)
        head, chunks = stream_chunks(host, port, self.path(
            f"&stream=1&timeout_ms={MID_STREAM_DEADLINE_MS}"))
        assert head.status == 200, "the stream had started"
        lines = all_lines(chunks)
        assert lines[-1]["cancelled"] is True
        assert lines[-1]["truncated"] is False
        assert 0 < lines[-1]["rows"] == len(lines) - 2 < full["rows"]
        (stream,) = streams
        wait_until(lambda: stream.finished)
        assert stream.cancelled and not stream.exhausted
        assert stream.engine == (engine or "block")
        self.assert_nothing_leaked(instance, host, port)

    def test_stalled_client_is_dropped_at_its_deadline(
            self, big_server, monkeypatch):
        instance, host, port = big_server
        streams = capture_streams(monkeypatch, instance.database)
        client = StallingClient(host, port)
        try:
            client.request(self.path("&stream=1&timeout_ms=1200"))
            assert client.read_until(b'{"b": ')
            (stream,) = streams
            wait_until_stalled(stream)
            assert not stream.finished
            wait_until(lambda: stream.finished)
            assert stream.cancelled, "QueryCancelled in the producer"
            self.assert_nothing_leaked(instance, host, port)
            assert not client.read_until(b"\r\n0\r\n\r\n")
        finally:
            client.close()

    def test_client_gone_after_the_first_chunk(self, big_server,
                                               monkeypatch):
        instance, host, port = big_server
        total = run(fetch(host, port, "GET",
                          self.path())).json()["rows"]
        streams = capture_streams(monkeypatch, instance.database)
        at_hang_up = []
        hang_up = app._Handoff.hang_up

        def recording(handoff):
            at_hang_up.append(streams[-1].produced)
            hang_up(handoff)

        monkeypatch.setattr(app._Handoff, "hang_up", recording)
        client = StallingClient(host, port)
        client.request(self.path("&stream=1"))
        assert client.read_until(b'{"b": ')
        client.close()
        wait_until(lambda: streams and streams[0].finished)
        (stream,) = streams
        assert stream.cancelled, "QueryCancelled in the producer"
        assert not stream.exhausted and stream.produced < total
        # the producer may have been inside a pull when the consumer
        # hung up: that block, and no other, may still be counted
        assert stream.produced - at_hang_up[0] <= blocks.BLOCK_ROWS
        self.assert_nothing_leaked(instance, host, port)


class TestOneRequestPath:
    """A served request enters through ``QueryService.stream``, as
    ``service.query`` does.  At the parent the HTTP producer re-spelled
    compile / plan / run without trace sampling or the query log, so
    ``serve --trace-sample`` and ``serve --query-log`` did nothing."""

    XPATH = "//employee//name"

    @staticmethod
    def start(**service_options):
        database = Database.from_document(
            personnel_document(target_nodes=2000, seed=42),
            service_options=service_options)
        instance = QueryServer(database, ServerConfig(
            port=0, tenant_rate=0.0), out=io.StringIO())
        return (instance, *instance.start())

    def serve(self, host, port, stream, extra=""):
        """One request; the summary it ends with and its status."""
        path = f"/query?xpath={self.XPATH}{extra}"
        if not stream:
            response = run(fetch(host, port, "GET", path))
            return response.json(), response.status
        head, chunks = stream_chunks(host, port, path + "&stream=1")
        if head.status != 200:
            return json.loads(b"".join(chunks)), head.status
        return all_lines(chunks)[-1], head.status

    def traced_ids(self, host, port):
        traces = run(fetch(host, port, "GET", "/traces")).json()
        return [trace["trace_id"] for trace in traces["traces"]]

    def test_trace_sampling_counts_served_requests(self):
        instance, host, port = self.start(trace_sample=1)
        tracer, service = instance.database.tracer, instance.service
        try:
            served = [self.serve(host, port, stream)[0]["trace_id"]
                      for stream in (False, True, False, True)]
            assert all(served) and len(set(served)) == 4
            assert tracer.recorded == 4
            assert self.traced_ids(host, port) == served
            # one sample clock, however the request entered
            service.trace_sample = 3
            for stream in (None, False, True, None, True, False):
                if stream is None:
                    service.query(self.XPATH)
                else:
                    self.serve(host, port, stream)
            assert tracer.recorded == 4 + 2
        finally:
            instance.stop()

    def test_completed_served_requests_reach_the_query_log(
            self, monkeypatch):
        """A record iff the run was read to its end."""
        instance, host, port = self.start(trace_sample=1)
        database = instance.database
        streams = capture_streams(monkeypatch, database)
        log = QueryLog(None)
        database.attach_query_log(log)
        try:
            summaries = [self.serve(host, port, stream)[0]
                         for stream in (False, True)]
            records = log.records()
            assert len(records) == 2
            for record, summary in zip(records, summaries):
                assert record["rows"] == summary["rows"] > 1
                assert record["engine"] == "block"
                assert record["algorithm"] == "DPP"
                assert record["trace_id"] == summary["trace_id"]
                assert record["operators"]
            assert self.traced_ids(host, port) \
                == [record["trace_id"] for record in records]
            # the same hook serves the in-process paths
            instance.service.query(self.XPATH)
            pattern = database.compile(self.XPATH)
            database.execute(database.optimize(pattern).plan, pattern,
                             engine="tuple")
            assert [record["engine"] for record in log.records()[2:]] \
                == ["block", "tuple"]
            assert all(stream.exhausted for stream in streams)
            # partial counters would poison calibrate and audit: a run
            # closed at its limit or cancelled by its deadline appends
            # nothing
            for stream in (False, True):
                summary, status = self.serve(host, port, stream,
                                             "&limit=1")
                assert status == 200 and summary["truncated"]
                assert not streams[-1].exhausted
            # this run could otherwise be read to its end before the
            # loop notices even a 0.01 ms deadline, and rightly be
            # logged: hold its producer until the consumer has hung up
            hold_producers(monkeypatch, database)
            for stream in (False, True):
                opened = len(streams)
                summary, status = self.serve(host, port, stream,
                                             "&timeout_ms=200")
                assert summary["cancelled"]
                assert status == (200 if stream else 504)
                assert len(streams) == opened + 1
                assert streams[-1].cancelled
                assert not streams[-1].exhausted
            assert len(streams) == 8
            assert len(log.records()) == 4 \
                == sum(stream.exhausted for stream in streams)
        finally:
            instance.stop()
            database.attach_query_log(None)

    def test_one_operator_record_in_traces_log_and_explain(self):
        """A traced served request, three readers, one record: the
        ``/traces`` entry, the query-log record and ``explain --json``
        of the same plan name every operator alike and agree on its
        counters."""
        instance, host, port = self.start(trace_sample=1)
        database = instance.database
        log = QueryLog(None)
        database.attach_query_log(log)
        try:
            self.serve(host, port, stream=False)
            (trace,) = run(fetch(host, port, "GET",
                                 "/traces")).json()["traces"]
            (record,) = log.records()
            explained = json.loads(json.dumps(database.explain(
                self.XPATH, analyze=True).to_dict()))["plan"]
        finally:
            instance.stop()
            database.attach_query_log(None)

        def flatten(node):
            yield node["detail"], node["counters"]
            for child in node["children"]:
                yield from flatten(child)

        served = list(flatten(trace))
        assert len(served) > 1
        assert served == list(flatten(explained))
        assert served == [(entry["operator"], entry["counters"])
                          for entry in record["operators"]]
        plan = database.optimize(self.XPATH).plan
        pattern = database.compile(self.XPATH)
        assert [label for label, _ in served] \
            == [node.label(pattern) for node in plan.walk()]


class TestShardedServing:
    def test_sharded_stream_matches_and_stitches_traces(self):
        from repro.shard.sharded import ShardedDatabase

        document = personnel_document(target_nodes=1500, seed=42)
        single = Database.from_document(document)
        expected = single.query("//employee//name")
        with ShardedDatabase(document, shards=2) as database:
            instance = QueryServer(database, ServerConfig(
                port=0, tenant_rate=0.0), out=io.StringIO())
            host, port = instance.start()
            log = QueryLog(None)
            database.attach_query_log(log)
            try:
                response = run(fetch(
                    host, port, "GET",
                    "/query?xpath=//employee//name",
                    headers={"X-Trace-Id": "shard-req-1"}))
                assert response.status == 200
                payload = response.json()
                assert payload["rows"] == len(expected)
                traces = run(fetch(host, port, "GET",
                                   "/traces")).json()
                stitched = [trace for trace in traces["traces"]
                            if trace["trace_id"] == "shard-req-1"]
                assert stitched
                rendered = json.dumps(stitched[0])
                assert "ShardScatterGather" in rendered
                # the coordinator logs the served run as a node would,
                # with the shards' operators and no coordinator stage
                (record,) = log.records()
                assert record["rows"] == len(expected)
                assert record["trace_id"] == "shard-req-1"
                assert record["operators"] and not any(
                    entry["operator"].startswith("Shard")
                    for entry in record["operators"])
            finally:
                instance.stop()
                database.attach_query_log(None)

    def test_root_twig_refusal_is_a_400_a_dead_worker_a_500(self):
        from urllib.parse import quote

        from repro.document.parser import parse_xml
        from repro.shard.sharded import ShardedDatabase

        document = parse_xml("<r><a><x/></a><a><x/></a>"
                             "<b><y/></b><b><y/></b></r>")
        with ShardedDatabase(document, shards=2) as database:
            instance = QueryServer(database, ServerConfig(
                port=0, tenant_rate=0.0), out=io.StringIO())
            host, port = instance.start()

            def get(xpath):
                return run(fetch(host, port, "GET",
                                 f"/query?xpath={quote(xpath)}"))

            try:
                # the request asks for what no fleet can answer
                refused = get("/r[a][b]")
                assert refused.status == 400, refused.json()
                assert refused.json()["kind"] == "UnshardablePatternError"
                assert "document root" in refused.json()["error"]
                wait_until(lambda: instance.admission.snapshot()
                           ["inflight"] == 0)
                assert "repro_http_inflight 0" in run(fetch(
                    host, port, "GET", "/metrics")).text()
                answered = get("/r/a")
                assert answered.status == 200
                assert answered.json()["rows"] == 2
                # the fleet failing is still the server's fault
                database.workers.crash_worker(1)
                broken = get("/r/a")
                assert broken.status == 500, broken.json()
                assert broken.json()["kind"] == "ShardError"
            finally:
                instance.stop()


class TestServerLifecycle:
    def test_port_in_use_raises_bind_error(self):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        taken = blocker.getsockname()[1]
        try:
            database = Database.from_document(
                personnel_document(target_nodes=200, seed=42))
            instance = QueryServer(database,
                                   ServerConfig(port=taken),
                                   out=io.StringIO())
            with pytest.raises(OSError):
                instance.start()
            assert instance.exit_code == 2
        finally:
            blocker.close()

    def test_stop_drains_and_reports(self):
        out = io.StringIO()
        database = Database.from_document(
            personnel_document(target_nodes=200, seed=42))
        instance = QueryServer(database, ServerConfig(port=0),
                               out=out)
        host, port = instance.start()
        assert run(fetch(host, port, "GET",
                         "/query?xpath=//employee")).status == 200
        instance.stop()
        assert instance.exit_code == 0
        text = out.getvalue()
        assert "serving /query" in text
        assert "draining" in text
        assert "drained: " in text

    @staticmethod
    def idle_connection(host, port):
        """A raw keep-alive connection that has been served once."""
        client = socket.create_connection((host, port), timeout=15.0)
        client.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        received = b""
        while b"\r\n\r\n" not in received:
            received += client.recv(65536)
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: keep-alive" in head
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        while len(body) < length:
            body += client.recv(65536)
        return client

    def test_drain_closes_an_idle_connection_at_once(self):
        database = Database.from_document(
            personnel_document(target_nodes=200, seed=42))
        instance = QueryServer(database, ServerConfig(
            port=0, drain_seconds=10.0), out=io.StringIO())
        host, port = instance.start()
        client = self.idle_connection(host, port)
        try:
            began = time.monotonic()
            instance.stop()
            # not the drain budget: nothing was in flight
            assert time.monotonic() - began < 5.0
            assert not instance._thread.is_alive()
            assert client.recv(1) == b""
            assert instance.exit_code == 0
        finally:
            client.close()

    def test_an_idle_connection_closes_after_keep_alive(self):
        database = Database.from_document(
            personnel_document(target_nodes=200, seed=42))
        instance = QueryServer(database, ServerConfig(
            port=0, keep_alive_seconds=0.3), out=io.StringIO())
        host, port = instance.start()
        try:
            client = self.idle_connection(host, port)
            began = time.monotonic()
            try:
                assert client.recv(1) == b""
            finally:
                client.close()
            assert 0.2 < time.monotonic() - began < 10.0
            # the server stays up
            assert run(fetch(host, port, "GET", "/healthz")).status == 200
        finally:
            instance.stop()
        assert instance.exit_code == 0

    @staticmethod
    def spawn_serve(*flags):
        """``repro serve`` on a free port, as a child process; the
        process and the port it announced."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--dataset", "pers", "--nodes", "400", "--port", "0",
             *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True, cwd=os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))))
        line = proc.stdout.readline()
        if "http://" not in line:
            proc.kill()
            raise AssertionError((line, proc.communicate()))
        return proc, int(line.rsplit(":", 1)[1].split()[0])

    @pytest.mark.parametrize("flags", [(), ("--trace-sample", "1")])
    def test_query_log_leaves_trace_sampling_alone(self, tmp_path,
                                                   flags):
        """One sampler: ``--query-log`` alone traces nothing (at the
        parent the log's own ``trace_sample=1`` traced every request);
        with ``--trace-sample 1`` every record carries its operators
        and its trace is in ``/traces``."""
        log_path = tmp_path / "served.jsonl"
        proc, port = self.spawn_serve("--query-log", str(log_path),
                                      *flags)
        try:
            for stream in ("0", "1", "0"):
                run(fetch("127.0.0.1", port, "GET",
                          f"/query?xpath=//employee&stream={stream}"))
            traces = run(fetch("127.0.0.1", port, "GET",
                               "/traces")).json()["traces"]
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        records = read_query_log(log_path).records
        assert len(records) == 3
        if flags:
            assert all(record["operators"] for record in records)
            assert [record["trace_id"] for record in records] \
                == [trace["trace_id"] for trace in traces]
        else:
            assert traces == []
            assert not any("operators" in record or "trace_id" in record
                           for record in records)

    def test_sigterm_drains_with_exit_zero(self, tmp_path):
        """The satellite: kill -TERM stops accepting, finishes
        in-flight work, flushes the query log, exits 0."""
        log_path = tmp_path / "served.jsonl"
        proc, port = self.spawn_serve("--query-log", str(log_path))
        try:
            run(fetch("127.0.0.1", port, "GET",
                      "/query?xpath=//employee"))
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, (out, err)
        assert "SIGTERM: draining" in out
        assert "drained:" in out
        assert "query log flushed" in out
        (record,) = read_query_log(log_path).records
        assert record["query"] == "//employee"
        assert record["engine"] == "block" and record["rows"] > 0


class TestShardedTimeToFirst:
    def test_time_to_first_is_before_total(self):
        from repro.shard.sharded import ShardedDatabase

        document = personnel_document(target_nodes=1500, seed=42)
        with ShardedDatabase(document, shards=2) as database:
            timing = database.time_to_first("//employee//name",
                                            algorithm="FP")
            assert timing.first_count == 1
            assert 0.0 < timing.first_seconds
            assert timing.first_seconds <= timing.total_seconds
            assert timing.total_count > 1
