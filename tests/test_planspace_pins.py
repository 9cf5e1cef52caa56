"""What the plan-space recorder saw, pinned bit for bit.

The recorder reads the search through :class:`~repro.core.status.Status`
views; the searches themselves run on integer codes.  A cell is one
paper query (Table 1) under one of the five memo searches; the fixture
``tests/data/planspace_pins.json`` holds, per cell, the
:class:`~repro.obs.planspace.PlanSpaceReport` JSON (its timing
excepted, its memo entries as below) and, for each list the recorder keeps — costed candidates,
search events, memo entries, alternative finals — its length and a
SHA-256 of its JSON (every float by ``repr``).  The lists themselves
run to 5 MB over the 40 cells; the fingerprints keep the fixture small
and still move on any one changed byte.

The fixture is written by running this module as a script::

    PYTHONPATH=src python tests/test_planspace_pins.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import Database
from repro.core.planspace import PlanSpaceRecorder
from repro.core.plans import canonical_plan_digest
from repro.obs.planspace import build_plan_space_report
from repro.workloads.queries import PAPER_QUERIES, dataset_document

FIXTURE = Path(__file__).parent / "data" / "planspace_pins.json"

ALGORITHMS = ("DP", "DPP", "DPP'", "DPAP-EB", "DPAP-LD")


def _fingerprint(items: list) -> list:
    """``[length, sha256 of the JSON]`` of one recorded list."""
    text = json.dumps(items, sort_keys=True)
    return [len(items), hashlib.sha256(text.encode()).hexdigest()]


def _cell(database, name, algorithm) -> dict:
    query = PAPER_QUERIES[name]
    recorder = PlanSpaceRecorder()
    database.optimize(query.pattern, algorithm=algorithm,
                      planspace=recorder)
    report = build_plan_space_report(recorder, query=name).to_dict()
    del report["optimization_seconds"]
    del report["memo_entries"]  # fingerprinted below
    return {
        "report": report,
        "candidates": _fingerprint(recorder.candidates),
        "events": _fingerprint([
            [event.kind, event.status_id, event.cost, event.detail,
             str(event.status)] for event in recorder.events]),
        "memo_entries": _fingerprint(recorder.memo_entries),
        "finals": _fingerprint([
            [canonical_plan_digest(plan, query.pattern), cost, note]
            for plan, cost, note in recorder.finals]),
    }


def cells() -> dict[str, dict]:
    databases = {dataset: Database.from_document(dataset_document(dataset))
                 for dataset in ("mbench", "dblp", "pers")}
    return {f"{name}/{algorithm}": _cell(databases[query.dataset], name,
                                         algorithm)
            for name, query in PAPER_QUERIES.items()
            for algorithm in ALGORITHMS}


@pytest.fixture(scope="module")
def pinned() -> dict[str, dict]:
    return json.loads(FIXTURE.read_text())


def test_every_recorded_search_is_bit_identical(pinned):
    actual = json.loads(json.dumps(cells()))
    assert actual.keys() == pinned.keys()
    moved = {cell: sorted(key for key in pinned[cell]
                          if actual[cell][key] != pinned[cell][key])
             for cell in pinned if actual[cell] != pinned[cell]}
    assert not moved, f"{len(moved)} cell(s) moved: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python "
                 "tests/test_planspace_pins.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    # one cell per line, so a moved cell is a one-line diff
    FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(cell)}: {json.dumps(pin, sort_keys=True)}"
        for cell, pin in sorted(cells().items())) + "\n}\n")
    print(f"wrote {FIXTURE}")
