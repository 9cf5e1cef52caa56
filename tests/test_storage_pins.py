"""Stored bytes, pinned: every page image and the write-ahead log.

A seeded sequence of 40 commits — inserts of small fragments under
random elements, appends under the root, deletes of random subtrees —
runs against a file-backed Pers 500 database.  Afterwards the SHA-256
of every page image (as the buffer pool serves it) and of the whole
log are compared with ``tests/data/storage_pins.json``.  A change to
how postings are spliced or frames are packed must leave both
byte-identical: the page format, the WAL records and recovery all read
these bytes.  The pins are written by running this module as a
script::

    PYTHONPATH=src python tests/test_storage_pins.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

from repro.document.parser import parse_xml
from repro.txn import create_database
from repro.txn.db import WAL_FILE
from repro.workloads import personnel_document

FIXTURE = Path(__file__).parent / "data" / "storage_pins.json"

SEED = 42
COMMITS = 40
FRAGMENTS = (
    '<employee id="w"><name>Wu</name><phone>+1-555</phone>'
    '<email>wu@example.com</email></employee>',
    "<name>Ng</name>",
    '<department><name>Ops</name><employee><name>Li</name></employee>'
    '</department>',
)


def run_sequence() -> dict:
    """Run the seeded commits and digest the pages and the log."""
    rng = random.Random(SEED)
    directory = Path(tempfile.mkdtemp(prefix="repro-pins-"))
    try:
        database = create_database(
            directory / "db",
            document=personnel_document(target_nodes=500, seed=SEED))
        try:
            for _ in range(COMMITS):
                nodes = database.document.nodes
                roll = rng.random()
                with database.transaction() as txn:
                    if roll < 0.3:
                        deep = [node for node in nodes if node.level >= 2]
                        txn.delete_subtree(rng.choice(deep).node_id)
                    elif roll < 0.45:
                        txn.append_document(
                            parse_xml(rng.choice(FRAGMENTS)))
                    else:
                        txn.insert_subtree(rng.choice(nodes).node_id,
                                           parse_xml(rng.choice(FRAGMENTS)))
            pool = database.pool
            pages = []
            for page_id in range(database.disk.page_count):
                page = pool.fetch(page_id)
                try:
                    pages.append(
                        hashlib.sha256(page.to_bytes()).hexdigest())
                finally:
                    pool.unpin(page_id)
            database.transactions.wal.sync()
            wal = hashlib.sha256(
                (directory / "db" / WAL_FILE).read_bytes()).hexdigest()
        finally:
            database.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"pages": pages, "wal": wal}


def test_pages_and_wal_are_byte_identical_to_the_pins():
    pins = json.loads(FIXTURE.read_text())
    got = run_sequence()
    assert len(got["pages"]) == len(pins["pages"])
    moved = [page_id for page_id, (digest, pinned)
             in enumerate(zip(got["pages"], pins["pages"]))
             if digest != pinned]
    assert not moved, f"page images moved: {moved}"
    assert got["wal"] == pins["wal"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_storage_pins.py "
                 "--write")
    pins = run_sequence()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        '{"wal": ' + json.dumps(pins["wal"]) + ',\n"pages": [\n'
        + ",\n".join(map(json.dumps, pins["pages"])) + "\n]}\n")
    print(f"wrote {FIXTURE}")
