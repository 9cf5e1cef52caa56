"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.api import Database
from repro.core.pattern import QueryPattern
from repro.document.builder import DocumentBuilder
from repro.document.document import XmlDocument
from repro.document.parser import parse_xml
from repro.estimation.estimator import ExactEstimator
from repro.workloads.queries import dataset_document

PERSONNEL_XML = """
<company>
  <manager id="m1"><name>Ada Adams</name>
    <employee id="e1"><name>Bob Baker</name></employee>
    <employee id="e2"><name>Carol Chen</name><phone>+1-555-0000</phone></employee>
    <department id="d1"><name>Sales</name>
      <employee id="e3"><name>Dan Diaz</name></employee>
    </department>
    <manager id="m2"><name>Eve Evans</name>
      <department id="d2"><name>Research</name></department>
      <employee id="e4"><name>Frank Fischer</name></employee>
    </manager>
  </manager>
  <manager id="m3"><name>Grace Gupta</name>
    <employee id="e5"><name>Hugo Hansen</name></employee>
  </manager>
</company>
"""


@pytest.fixture(scope="session")
def personnel_xml() -> str:
    return PERSONNEL_XML


@pytest.fixture(scope="session")
def small_document() -> XmlDocument:
    """A hand-written personnel document used across the suite."""
    return parse_xml(PERSONNEL_XML, name="small-pers")


@pytest.fixture(scope="session")
def small_database(small_document: XmlDocument) -> Database:
    return Database.from_document(small_document)


@pytest.fixture(scope="session")
def running_example_pattern() -> QueryPattern:
    """The Fig. 1 running example: manager//employee/name +
    manager//manager/department/name (shape c, 6 nodes)."""
    return QueryPattern.build({
        "nodes": ["manager", "employee", "name", "manager", "department",
                  "name"],
        "edges": [(0, 1, "//"), (1, 2, "/"), (0, 3, "//"), (3, 4, "/"),
                  (4, 5, "/")],
    })


@pytest.fixture
def chain_pattern() -> QueryPattern:
    """manager // employee / name — the simplest multi-join pattern."""
    return QueryPattern.build({
        "nodes": ["manager", "employee", "name"],
        "edges": [(0, 1, "//"), (1, 2, "/")],
    })


def random_document(seed: int, size: int = 40,
                    tags: tuple[str, ...] = ("a", "b", "c", "d")) -> XmlDocument:
    """A random tree document for property-style tests.

    Grows a tree by attaching each new node under a uniformly chosen
    existing open path; deterministic for a given seed.
    """
    rng = random.Random(seed)
    builder = DocumentBuilder(name=f"random-{seed}")
    builder.start_element("root")
    open_depth = 1
    created = 1
    while created < size:
        action = rng.random()
        if action < 0.55 or open_depth == 1:
            builder.start_element(rng.choice(tags))
            open_depth += 1
            created += 1
        elif open_depth > 1:
            builder.end_element()
            open_depth -= 1
    while open_depth > 0:
        builder.end_element()
        open_depth -= 1
    return builder.finish()


@pytest.fixture(scope="module")
def paper_databases():
    return {dataset: Database.from_document(dataset_document(dataset))
            for dataset in ("mbench", "dblp", "pers")}


def pair_count(document: XmlDocument, ancestor: str, descendant: str,
               axis: str = "//") -> float:
    """The true size of the edge *ancestor* *axis* *descendant*."""
    pattern = QueryPattern.build({"nodes": [ancestor, descendant],
                                  "edges": [(0, 1, axis)]})
    return ExactEstimator(document).edge_cardinality(pattern, 0, 1)


@pytest.fixture(scope="module")
def random_database():
    # same tag alphabet as random_pattern, so cardinalities are non-zero
    return Database.from_document(random_document(7, size=400))


def branches_at_root(pattern: QueryPattern, document: XmlDocument) -> bool:
    """The one kind of pattern a shard fleet refuses: its root can
    bind the replicated document root and branches there (both DBLP
    paper queries), so a match may take branches from two shards."""
    return (len(pattern.children(pattern.root)) >= 2
            and pattern.node(pattern.root).matches(document.root))


def canonical_bindings(bindings: list[dict[int, object]]) -> set[tuple]:
    """Order-independent identity for lists of binding dicts."""
    return {tuple(binding[key].start for key in sorted(binding))
            for binding in bindings}
