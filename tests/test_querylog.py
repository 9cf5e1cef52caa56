"""Query-log round-trip, rotation, sampling and wiring tests."""

import json
import threading

import pytest

from repro.api import Database
from repro.errors import ReproError
from repro.obs import querylog
from repro.obs.querylog import (QueryLog, build_record, read_query_log,
                                signature_digest)

DOC = """
<company>
  <manager><name>ada</name>
    <employee><name>bob</name></employee>
    <employee><name>cid</name></employee>
  </manager>
  <manager><name>eve</name>
    <employee><name>dan</name></employee>
  </manager>
</company>
"""


@pytest.fixture()
def database():
    return Database.from_xml(DOC)


def _sample_records(n):
    return [{"query": f"//q{i}", "rows": i, "wall_seconds": i * 0.5,
             "counters": {"index_items": i}} for i in range(n)]


# -- file round-trip --------------------------------------------------------

def test_roundtrip_preserves_every_field(tmp_path):
    path = tmp_path / "log.jsonl"
    records = _sample_records(5)
    with QueryLog(path) as log:
        for record in records:
            log.record(record)
        log.flush()
        assert log.recorded == 5
        assert log.written == 5
        assert log.dropped == 0
    scan = read_query_log(path)
    assert scan.records == records
    assert scan.skipped == 0
    assert scan.files == [str(path)]


def test_rotation_keeps_chronology_and_bounds_files(tmp_path):
    path = tmp_path / "log.jsonl"
    # each record is well over max_bytes, so every append rotates
    with QueryLog(path, max_bytes=64, backups=2) as log:
        for i in range(5):
            log.record({"query": f"//q{i}", "pad": "x" * 80})
        log.flush()
    # every append exceeded max_bytes, so each rotated immediately and
    # only the newest `backups` generations survive
    survivors = sorted(p.name for p in tmp_path.iterdir())
    assert survivors == ["log.jsonl.1", "log.jsonl.2"]
    scan = read_query_log(path)
    # oldest rotations were deleted; the rest read back oldest-first
    assert [r["query"] for r in scan.records] == ["//q3", "//q4"]
    assert scan.files == [str(path) + ".2", str(path) + ".1"]


def test_malformed_lines_are_skipped_and_counted(tmp_path):
    path = tmp_path / "log.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"query": "//a"}) + "\n")
        handle.write("{torn write\n")
        handle.write("[1, 2, 3]\n")  # valid JSON, not an object
        handle.write("\n")  # blank lines are not corruption
        handle.write(json.dumps({"query": "//b"}) + "\n")
    scan = read_query_log(path)
    assert [r["query"] for r in scan.records] == ["//a", "//b"]
    assert scan.skipped == 2


def test_reader_takes_every_rotation_the_writer_kept(tmp_path):
    """At the parent the reader probed ``path.16`` … ``path.1`` only, so
    a log kept with more backups lost its oldest segments on read."""
    path = tmp_path / "log.jsonl"
    with QueryLog(path, max_bytes=1, backups=20) as log:
        for i in range(30):
            log.record({"n": i})
        records = log.records()
    assert [r["n"] for r in records] == list(range(10, 30))
    scan = read_query_log(path)
    assert len(scan.files) == 20 and scan.records == records


def test_memory_mode_needs_no_files(monkeypatch):
    monkeypatch.setattr(querylog, "MEMORY_CAPACITY", 3)
    with QueryLog(None) as log:
        for record in _sample_records(5):
            log.record(record)
        kept = log.records()
    assert [r["rows"] for r in kept] == [2, 3, 4]  # bounded, newest win


def test_record_after_close_is_ignored(tmp_path):
    log = QueryLog(tmp_path / "log.jsonl")
    log.close()
    log.record({"query": "//late"})
    assert log.recorded == 0
    log.close()  # idempotent


def test_constructor_validation(tmp_path):
    with pytest.raises(ReproError):
        QueryLog(tmp_path / "l", max_bytes=0)
    with pytest.raises(ReproError):
        QueryLog(tmp_path / "l", backups=0)


def test_record_is_thread_safe(tmp_path):
    path = tmp_path / "log.jsonl"
    with QueryLog(path) as log:
        def hammer(base):
            for i in range(50):
                log.record({"n": base + i})

        threads = [threading.Thread(target=hammer, args=(t * 50,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.flush()
        assert log.recorded == 200
        assert log.written + log.dropped == 200
    seen = {r["n"] for r in read_query_log(path).records}
    assert len(seen) == log.written


# -- record building and Database wiring ------------------------------------

def test_build_record_fields(database):
    pattern = database.compile("//manager//employee/name")
    plan = database.optimize(pattern).plan
    execution = database.execute(plan, pattern, spans=True)
    record = build_record(pattern, plan, execution, algorithm="DPP",
                         engine="block", statistics_epoch=7,
                         factors=database.cost_factors)
    assert record["signature"] == signature_digest(pattern)
    assert record["algorithm"] == "DPP"
    assert record["engine"] == "block"
    assert record["statistics_epoch"] == 7
    assert record["rows"] == len(execution)
    assert record["plan"] == plan.signature()
    assert record["plan_digest"]
    assert record["factors"] == database.cost_factors.to_dict()
    assert record["counters"]["index_items"] > 0
    # traced run carries per-operator calibration inputs
    operators = record["operators"]
    assert operators[0]["estimated_rows"] >= 0
    assert any(entry["counters"]["index_items"] > 0
               for entry in operators)
    # the record must be JSON-serializable as written
    json.loads(json.dumps(record))


def test_signature_digest_is_renumbering_invariant(database):
    first = database.compile("//manager//employee/name")
    second = database.compile("//manager//employee/name")
    assert signature_digest(first) == signature_digest(second)
    other = database.compile("//manager/name")
    assert signature_digest(first) != signature_digest(other)


def test_database_logs_every_execution(database):
    """Every run is logged; the service's 1-in-K sampler — the only
    one — decides which records carry per-operator detail."""
    log = QueryLog(None)
    database.attach_query_log(log)
    database.service.trace_sample = 2
    try:
        for _ in range(4):
            database.service.query("//manager/employee",
                                   algorithm="DPP")
        database.query("//manager/employee", algorithm="DPP")
    finally:
        database.service.trace_sample = 0
    records = log.records()
    assert len(records) == 5
    assert all(r["algorithm"] == "DPP" for r in records)
    traced = [bool(r.get("operators")) for r in records]
    assert traced == [False, True, False, True, False]
    database.attach_query_log(None)
    database.query("//manager/employee")
    assert len(log.records()) == 5


def test_service_queries_are_logged(database):
    log = QueryLog(None)
    database.attach_query_log(log)
    database.query_many(["//manager/name"] * 3, algorithm="DPP'")
    records = log.records()
    assert len(records) == 3
    assert {r["algorithm"] for r in records} == {"DPP'"}
    assert {r["query"] for r in records} == {"//manager/name"}
