"""Smoke tests of the benchmark itself: ``pytest perf/tests``.

Outside tier-1's ``testpaths`` on purpose — they start servers and
shard fleets and take about two minutes.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perf import bench  # noqa: E402

bench.require_program()

from perf import run  # noqa: E402
from perf.loadgen import Reply  # noqa: E402
from perf.oracle import Oracle  # noqa: E402
from perf.workloads import serve  # noqa: E402

MANIFEST = run.load_manifest()
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_manifest_names_and_counts():
    names = (WORKLOADS
             + [m["name"] for m in MANIFEST["end_to_end"]]
             + [m["name"] for m in MANIFEST["per_layer"]])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    assert set(WORKLOADS) == set(run.WORKLOADS)
    assert MANIFEST["paths"] == ["perf"]
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert all(m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_exactly_the_declared_metrics(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace",
         str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        if not trace:  # an end-to-end metric is never 0
            assert value["value"] > 0
    if trace:
        assert (ROOT / "perf" / "out" / f"trace-{workload}.json").is_file()
        assert f"budget {workload}:" in done.stderr


def test_no_child_process_outlives_a_run():
    # what a sharded run leaves unless stopped: multiprocessing's
    # resource tracker (alive until its parent exits, then a zombie),
    # here next to a child nobody waited for
    script = (
        "import subprocess, sys\n"
        "from multiprocessing import resource_tracker\n"
        "from perf import bench\n"
        "resource_tracker.ensure_running()\n"
        "subprocess.Popen([sys.executable, '-c',"
        " 'import time; time.sleep(60)'])\n"
        "assert len(bench._children(set())) == 2\n"
        "bench.stop_stragglers()\n"
        "print(bench._children(set()))\n")
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=30)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


def test_oracle_agrees_with_the_program_on_the_paper_queries():
    from repro import Database
    from repro.document.serialize import serialize
    from repro.workloads import PAPER_QUERIES, dataset_document

    sizes = {"pers": {"target_nodes": 600},
             "dblp": {"entries": 60},
             "mbench": {"target_nodes": 600}}
    for dataset, kwargs in sizes.items():
        text = serialize(dataset_document(dataset, seed=42, **kwargs))
        database = Database.from_xml(text)
        oracle = Oracle(text)
        for query in PAPER_QUERIES.values():
            if query.dataset == dataset:
                assert oracle.count(query.pattern) == len(
                    database.query(query.pattern, "DPP")), query.name


def test_a_disagreeing_oracle_fails_the_run(monkeypatch):
    honest = Oracle.count

    def off_by_one(self, pattern):
        return honest(self, pattern) + (len(pattern) == 4)

    monkeypatch.setattr(Oracle, "count", off_by_one)
    monkeypatch.setattr(run, "SETUPS", 1)
    result = run.run_workload("inproc_twig", seed=3, seconds=0.5,
                              traced=False)
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


class _StallingConnection:
    """A fake server connection whose first reply takes 200 ms."""

    calls = 0
    connect_seconds = 0.0

    def __init__(self, port):
        pass

    async def open(self):
        return self

    async def close(self):
        pass

    async def metrics(self):
        return {}

    async def query(self, xpath, stream, limit=0, headers=None):
        sent = bench.clock()
        type(self).calls += 1
        await asyncio.sleep(0.2 if type(self).calls == 1 else 0.001)
        now = bench.clock()
        return Reply(status=200, sent=sent, head=now, first_row=None,
                     end=now, rows=1, body_bytes=10, cancelled=False)


def test_open_loop_times_from_the_due_time(monkeypatch):
    """A stall on the only connection delays the requests due during
    it; timed from their due time, the wait is in their latency."""
    monkeypatch.setattr(serve, "Connection", _StallingConnection)
    monkeypatch.setattr(serve, "MIXED_RATE", 100.0)
    speed = bench.Speedometer()
    workload = serve.ServeMixed(seed=5, speed=speed, scratch=None)
    workload.connections = 1
    workload.server = type("Server", (), {"port": 0})()
    workload.expect = lambda xpath: 1
    rec = bench.Recorder(speed)
    workload.run(rec, seconds=0.15)  # 15 arrivals within the stall
    assert rec.attempted == 15 and not rec.failures
    spans = sorted((start, end) for _, start, end, _ in rec._ops)
    # every later request was due before the stalled one returned,
    # yet was sent only after it: its latency carries that wait
    stalled_end = spans[0][1]
    assert spans[0][1] - spans[0][0] >= 0.2
    for start, end in spans[1:]:
        assert start < stalled_end <= end
        assert end - start >= stalled_end - start
