"""One labeller: every placement case of the write path, pinned.

A seeded sequence of inserts, appends and deletes runs against a small
Pers document, one transaction per step.  Each insert lands in one of
the five placement cases of :mod:`repro.txn.labels`:

* **root append** — under the root, past its end, which grows;
* **tail-gap fit** — into the parent's tail gap, nothing relabelled;
* **relabel at the parent** — the parent's span has room, its tail
  has not: the parent's descendants are renumbered;
* **walk-up to an ancestor** — the parent's span is too small, the
  nearest ancestor (not the root) with room is renumbered;
* **relabel from the root** — no ancestor below the root has room.

The case is read off the labelling contract — the anchor is the
nearest ancestor-or-self of the parent whose span holds its
descendants plus the incoming subtree, else the root — and the test
checks that nothing outside the anchor's subtree moved.  The node
table after every step (``(start, end, level, parent_id, tag, text,
attributes)`` of every node) is pinned by digest and the final table in
full, in ``tests/data/label_pins.json``, written by running this module
as a script::

    PYTHONPATH=src python tests/test_labels.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.api import Database
from repro.document.document import XmlDocument
from repro.document.parser import parse_xml
from repro.workloads import personnel_document

FIXTURE = Path(__file__).parent / "data" / "label_pins.json"

SEED = 28
STEPS = 60
FRAGMENTS = (
    '<employee id="w"><name>Wu</name><phone>+1-555</phone>'
    '<email>wu@example.com</email></employee>',
    "<name>Ng</name>",
    '<department><name>Ops</name><employee><name>Li</name></employee>'
    '</department>',
)
CASES = ("root append", "tail-gap fit", "relabel at the parent",
         "walk-up to an ancestor", "relabel from the root")


def node_table(document: XmlDocument) -> list[list]:
    return [[node.start, node.end, node.level, node.parent_id, node.tag,
             node.text, dict(node.attributes)]
            for node in document]


def digest(document: XmlDocument) -> str:
    return hashlib.sha256(json.dumps(node_table(document),
                                     sort_keys=True).encode()
                          ).hexdigest()[:16]


def placement(before: XmlDocument, parent_id: int, count: int,
              relabelled: bool) -> tuple[str, int | None]:
    """The placement case of inserting *count* nodes under
    *parent_id*, and the node whose descendants it renumbers (``None``:
    none)."""
    root = before.root
    if parent_id == root.node_id:
        return "root append", None
    if not relabelled:
        return "tail-gap fit", None
    anchor = before.node(parent_id)
    while anchor.node_id != root.node_id and (
            anchor.end - anchor.start
            < len(list(before.descendants(anchor))) + count):
        anchor = before.parent(anchor)
    if anchor.node_id == root.node_id:
        return "relabel from the root", root.node_id
    if anchor.node_id == parent_id:
        return "relabel at the parent", parent_id
    return "walk-up to an ancestor", anchor.node_id


def run_sequence() -> dict:
    """Run the seeded sequence; returns the steps and the final table.

    Every step checks that labels outside what it may renumber stayed
    put: nothing for a delete, the root's end for a root append, the
    anchor's subtree (and the root's end) for a relabel."""
    rng = random.Random(SEED)
    database = Database.from_document(
        personnel_document(target_nodes=150, seed=5))
    steps = []
    last_parent = None
    for _ in range(STEPS):
        before = database.document
        roll = rng.random()
        if roll < 0.2 and len(before) > 1:
            victim = rng.choice(before.nodes[1:])
            with database.transaction() as txn:
                txn.delete_subtree(victim.node_id)
            gone = {node.node_id for node in before.subtree(victim)}
            kept = [node for node in before if node.node_id not in gone]
            assert list(database.document) == kept
            steps.append(["delete", victim.node_id, digest(
                database.document)])
            continue
        fragment = parse_xml(rng.choice(FRAGMENTS))
        if roll < 0.3:
            parent_id = before.root.node_id
        elif (roll < 0.7 and last_parent is not None
              and any(node.node_id == last_parent for node in before)):
            parent_id = last_parent
        else:
            parent_id = rng.choice(before.nodes).node_id
        txn = database.transactions.begin()
        if parent_id == before.root.node_id and rng.random() < 0.5:
            txn.append_document(fragment)
        else:
            txn.insert_subtree(parent_id, fragment)
        result = txn.commit()
        case, anchor_id = placement(before, parent_id, len(fragment),
                                    bool(result.relabels))
        after = {node.node_id: node for node in database.document}
        for node in before.nodes[1:]:
            if anchor_id is None or not (
                    anchor_id < node.start <= before.node(anchor_id).end):
                assert after.get(node.node_id) == node, (case, node)
        last_parent = parent_id
        steps.append([case, parent_id, digest(database.document)])
    return {"steps": steps, "final": node_table(database.document)}


def test_every_placement_case_is_pinned():
    expected = json.loads(FIXTURE.read_text())
    actual = run_sequence()
    assert {step[0] for step in actual["steps"]} >= set(CASES)
    for index, (step, pinned) in enumerate(zip(actual["steps"],
                                               expected["steps"])):
        assert step == pinned, f"step {index}: {step} != {pinned}"
    assert len(actual["steps"]) == len(expected["steps"])
    assert actual["final"] == expected["final"]


def test_gapped_incoming_document_places_like_its_dense_twin():
    """An inserted document need not be densely labelled (a committed
    database's own document is not): a relabel places it exactly as
    its dense twin."""
    gapped_source = Database.from_document(parse_xml(
        "<employee><name>Ng</name><x/><phone>+1</phone></employee>"))
    with gapped_source.transaction() as txn:
        txn.delete_subtree(2)
    gapped = gapped_source.document
    dense = parse_xml("<employee><name>Ng</name><phone>+1</phone>"
                      "</employee>")
    assert [node.start for node in gapped] == [0, 1, 3]
    tables = []
    for incoming in (gapped, dense):
        database = Database.from_document(
            personnel_document(target_nodes=150, seed=5))
        leaf = next(node for node in database.document
                    if node.tag == "phone")
        with database.transaction() as txn:
            txn.insert_subtree(leaf.node_id, incoming)
        assert database.transactions.metrics.relabels == 1
        tables.append(node_table(database.document))
    assert tables[0] == tables[1]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_labels.py "
                 "--write")
    pins = run_sequence()
    FIXTURE.parent.mkdir(exist_ok=True)
    # one step / one node per line, so a moved label is a one-line diff
    FIXTURE.write_text(
        '{"steps": [\n' + ",\n".join(map(json.dumps, pins["steps"]))
        + '\n],\n"final": [\n'
        + ",\n".join(map(json.dumps, pins["final"])) + "\n]}\n")
    print(f"wrote {FIXTURE}")
