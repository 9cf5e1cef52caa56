"""Minimal HTTP/1.1 over asyncio streams — just what serving needs.

Hand-rolled on purpose: the stdlib's ``http.server`` is thread-per-
connection and cannot interleave a chunked response with a deadline
timer, and this repo takes no third-party dependencies.  Supported
surface: request line + headers + ``Content-Length`` bodies, query
strings, keep-alive, fixed-length responses and chunked transfer
encoding for streams.  Anything else (request trailers, upgrades,
``Transfer-Encoding`` on requests) is rejected with a clear status.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.engine.tuples import PackedRows

__all__ = ["HttpRequest", "ProtocolError", "read_request",
           "render_response", "json_response", "json_line",
           "json_result", "json_rows", "ndjson_rows", "ChunkedWriter",
           "REASONS"]

REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

MAX_HEADER_COUNT = 100
MAX_LINE_BYTES = 8190


class ProtocolError(Exception):
    """Malformed or unsupported HTTP from the peer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request; header names are lower-cased."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return "keep-alive" in connection
        return "close" not in connection

    def json_body(self) -> dict:
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(400, f"invalid JSON body: {exc}")
        if not isinstance(payload, dict):
            raise ProtocolError(400, "JSON body must be an object")
        return payload


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise ProtocolError(400, "header line too long")
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(400, "header line too long")
    return line


async def read_request(reader: asyncio.StreamReader,
                       max_body: int = 1 << 20) -> HttpRequest | None:
    """Parse one request; ``None`` on a clean EOF between requests."""
    line = await _read_line(reader)
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ProtocolError(400, f"malformed request line: {line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(400, f"unsupported version {version}")
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= MAX_HEADER_COUNT:
            raise ProtocolError(400, "too many headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise ProtocolError(501, "request transfer-encoding "
                                 "is not supported")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ProtocolError(400, "bad content-length")
        if length < 0:
            raise ProtocolError(400, "bad content-length")
        if length > max_body:
            raise ProtocolError(413, f"body exceeds {max_body} bytes")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise ProtocolError(400, "truncated request body")
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return HttpRequest(method=method.upper(), path=unquote(split.path),
                       query=query, headers=headers, body=body,
                       version=version)


def _head(status: int, content_type: str, framing: str,
          extra_headers: dict[str, str] | None,
          keep_alive: bool) -> bytes:
    """A response's status line and headers; *framing* is the header
    that says where the body ends."""
    lines = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
             f"Content-Type: {content_type}", framing,
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    lines += [f"{name}: {value}"
              for name, value in (extra_headers or {}).items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def render_response(status: int, body: bytes,
                    content_type: str = "application/json",
                    extra_headers: dict[str, str] | None = None,
                    keep_alive: bool = True) -> bytes:
    return _head(status, content_type, f"Content-Length: {len(body)}",
                 extra_headers, keep_alive) + body


def json_response(status: int, payload: object,
                  extra_headers: dict[str, str] | None = None,
                  keep_alive: bool = True) -> bytes:
    """A pretty-printed body, for the responses people read: errors,
    rejections, observability.  (``indent`` takes :mod:`json` off its
    C encoder; query results go through :func:`json_line`.)"""
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return render_response(status, body.encode("utf-8"),
                           extra_headers=extra_headers,
                           keep_alive=keep_alive)


def json_line(payload: object) -> bytes:
    """One JSON object on one line: an NDJSON schema or summary line
    (a buffered query result body is :func:`json_result`)."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _row_lines(rows: PackedRows, before: str, after: str) -> str:
    """Every row of a packed block as ``before`` + its labels as a JSON
    array + ``after``: one ``%`` format of that line, repeated once per
    row, over the block's labels — no row object is built."""
    line = before + "[" + ", ".join(["%d"] * rows.width) + "]" + after
    return (line * len(rows)) % tuple(rows.labels)


def ndjson_rows(rows: PackedRows) -> bytes:
    """The NDJSON lines of a block of packed rows, one ``{"b": [...]}``
    each: exactly the bytes of ``json.dumps({"b": list(row)}) + "\\n"``
    per row (tests pin that)."""
    if not rows:
        return b""
    return _row_lines(rows, '{"b": ', "}\n").encode("ascii")


def json_rows(rows: PackedRows) -> bytes:
    """A block of packed rows as JSON arrays, each followed by
    ``", "``: a piece of a buffered body's ``bindings``
    (:func:`json_result`)."""
    if not rows:
        return b""
    return _row_lines(rows, "", ", ").encode("ascii")


def json_result(payload: dict, rows: "list[bytes]") -> bytes:
    """:func:`json_line` of *payload* with ``bindings`` the rows that
    :func:`json_rows` encoded, spliced in: the bytes of dumping them as
    lists of ints.  The splice is sound because JSON escapes every
    quote inside a string, so ``"bindings": []`` occurs once, as the
    key."""
    body = json_line({**payload, "bindings": []})
    return body.replace(b'"bindings": []', b'"bindings": ['
                        + b"".join(rows)[:-2] + b"]", 1)


class ChunkedWriter:
    """A chunked-transfer response; one per streamed request.

    ``start`` holds the header block back (a ``StreamWriter.write``
    on an idle transport is a ``send`` of its own) and the first
    ``send`` or ``finish`` writes it together with its chunk; ``send``
    writes one chunk per call — however many NDJSON lines the caller
    put in it — and waits until the client has taken enough for the
    transport to want more, ``finish`` writes a last chunk together
    with the terminating zero chunk.  The server checks
    :attr:`started` to decide whether an error can still become a
    clean status response or must be reported in-band, and
    :attr:`stalled` — true while, and after, a wait for the client
    that did not complete — to decide whether anything further can
    reach the client at all.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._head = b""  # held until the first chunk goes out
        self.started = False
        self.finished = False
        self.stalled = False

    def start(self, status: int = 200,
              content_type: str = "application/x-ndjson",
              extra_headers: dict[str, str] | None = None,
              keep_alive: bool = True) -> None:
        """Hold the header block; the first write carries it."""
        self._head = _head(status, content_type,
                           "Transfer-Encoding: chunked", extra_headers,
                           keep_alive)
        self.started = True

    async def send(self, data: bytes) -> None:
        if not data:
            return
        await self._write(b"%x\r\n%b\r\n" % (len(data), data))

    async def finish(self, data: bytes = b"") -> None:
        """The last chunk (if any) and the terminator, in one write."""
        if self.finished:
            return
        self.finished = True
        last = b"%x\r\n%b\r\n" % (len(data), data) if data else b""
        await self._write(last + b"0\r\n\r\n")

    async def _write(self, data: bytes) -> None:
        self._writer.write(self._head + data)
        self._head = b""
        self.stalled = True
        await self._writer.drain()  # raises if cancelled or reset
        self.stalled = False
