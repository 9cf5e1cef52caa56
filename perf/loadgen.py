"""Load generation over HTTP: the server child and a timestamping client.

The server is the program's own command line (``python -m repro serve
... --port 0``) in a child process, so generator and server do not
share an interpreter lock.  The client is the benchmark's own — raw
HTTP/1.1 over asyncio streams, nothing imported from ``src/`` — and
stamps every request at four points on the wire: sent, status line
read, first result row read, terminal line read.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import select
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

from perf.bench import SRC, clock

START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0


class ServerChild:
    """``python -m repro serve`` on a free port, over one XML file."""

    def __init__(self, xml_path: Path, cwd: Path,
                 extra: tuple[str, ...] = ()) -> None:
        environment = dict(os.environ, PYTHONPATH=str(SRC))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--xml",
             str(xml_path), "--port", "0", *extra],
            cwd=cwd, env=environment, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        try:
            self.port = self._announced_port()
        except BaseException:
            self.stop()
            raise

    def _announced_port(self) -> int:
        """The port from the server's first line (it serves by then)."""
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], START_TIMEOUT_S)
        line = stdout.readline().decode() if ready else ""
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not announce a port "
                               f"(said {line!r})")
        return int(match.group(1))

    def stop(self) -> None:
        """SIGTERM (the server drains and exits 0), then wait; kill a
        server that does not leave."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


@dataclass
class Reply:
    """One request's outcome and its four wire timestamps."""

    status: int
    sent: float
    head: float
    first_row: "float | None"
    end: float
    rows: int
    body_bytes: int
    cancelled: bool


class Connection:
    """One keep-alive connection to the server."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None
        self.connect_seconds = 0.0

    async def open(self) -> "Connection":
        start = clock()
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port)
        self.connect_seconds = clock() - start
        return self

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass

    async def query(self, xpath: str, stream: bool, limit: int = 0,
                    headers: "dict[str, str] | None" = None) -> Reply:
        return await asyncio.wait_for(
            self._query(xpath, stream, limit, headers or {}),
            REQUEST_TIMEOUT_S)

    async def _query(self, xpath: str, stream: bool, limit: int,
                     headers: dict) -> Reply:
        path = f"/query?xpath={quote(xpath, safe='')}"
        if stream:
            path += "&stream=1"
        if limit:
            path += f"&limit={limit}"
        lines = [f"GET {path} HTTP/1.1", f"Host: 127.0.0.1:{self.port}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        sent = clock()
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode())
        await self.writer.drain()
        status_line = await self.reader.readline()
        head = clock()
        status = int(status_line.split()[1])
        response_headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        first_row = None
        body_bytes = 0
        if "chunked" in response_headers.get("transfer-encoding", ""):
            # NDJSON, one line per chunk: schema line, rows, summary
            chunks = 0
            last = b""
            while True:
                size = int((await self.reader.readline()).strip() or b"0",
                           16)
                if size == 0:
                    await self.reader.readline()
                    break
                last = await self.reader.readexactly(size)
                await self.reader.readexactly(2)
                chunks += 1
                body_bytes += size
                if chunks == 2:
                    first_row = clock()
            end = clock()
            summary = json.loads(last)
            if chunks == 2:  # schema line + summary: no row at all
                first_row = None
        else:
            length = int(response_headers.get("content-length", "0"))
            body = await self.reader.readexactly(length)
            end = clock()
            body_bytes = length
            summary = json.loads(body) if body else {}
        return Reply(status=status, sent=sent, head=head,
                     first_row=first_row, end=end,
                     rows=int(summary.get("rows", -1)),
                     body_bytes=body_bytes,
                     cancelled=bool(summary.get("cancelled")))

    async def metrics(self) -> dict[str, float]:
        """``/metrics`` as {series-with-labels: value}."""
        self.writer.write(f"GET /metrics HTTP/1.1\r\n"
                          f"Host: 127.0.0.1:{self.port}\r\n\r\n".encode())
        await self.writer.drain()
        length = 0
        await self.reader.readline()
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":")[1])
        text = (await self.reader.readexactly(length)).decode()
        series = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                series[name] = float(value)
        return series
