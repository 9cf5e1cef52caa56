"""The paper's query workload (Sec. 4.1, Fig. 6, Table 1).

Four pattern *shapes* of increasing size (the source text of the paper
does not preserve the Fig. 6 images, so the shapes are reconstructed
from the constraints the text gives: sizes grow a -> d, shape *c* is
the Fig. 1 running example, and Table 1's optimization times grow with
shape size):

* **a** — 4 nodes: a root with a 2-step chain and one extra branch
* **b** — 5 nodes: a root with two 2-step chains
* **c** — 6 nodes: the running example (manager/employee/name +
  manager/department/name)
* **d** — 7 nodes: a root with three 2-step chains

Eight concrete queries instantiate the shapes against the three data
sets, named exactly as in the paper: ``Q.<DataSet>.<Num>.<shape>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import PatternError
from repro.core.pattern import QueryPattern
from repro.document.document import XmlDocument
from repro.workloads.dblp import dblp_document
from repro.workloads.mbench import mbench_document
from repro.workloads.personnel import personnel_document

#: shape letter -> edge list (parent index, child index)
PATTERN_SHAPES: dict[str, tuple[tuple[int, int], ...]] = {
    "a": ((0, 1), (1, 2), (0, 3)),
    "b": ((0, 1), (1, 2), (0, 3), (3, 4)),
    "c": ((0, 1), (1, 2), (0, 3), (3, 4), (4, 5)),
    "d": ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)),
}


def build_shape(shape: str, nodes: Sequence[object],
                axes: Sequence[str],
                order_by: int | None = None) -> QueryPattern:
    """Instantiate a pattern shape with tags/predicates and axes.

    *nodes* entries are tag strings or ``(tag, predicates)`` pairs as
    accepted by :meth:`QueryPattern.build`; *axes* gives one ``"/"`` or
    ``"//"`` per shape edge.
    """
    edges = PATTERN_SHAPES.get(shape)
    if edges is None:
        raise PatternError(f"unknown pattern shape {shape!r}")
    if len(nodes) != len(edges) + 1:
        raise PatternError(
            f"shape {shape!r} needs {len(edges) + 1} nodes, got "
            f"{len(nodes)}")
    if len(axes) != len(edges):
        raise PatternError(
            f"shape {shape!r} needs {len(edges)} axes, got {len(axes)}")
    return QueryPattern.build({
        "nodes": list(nodes),
        "edges": [(parent, child, axis)
                  for (parent, child), axis in zip(edges, axes)],
        "order_by": order_by,
    })


@dataclass(frozen=True)
class PaperQuery:
    """One named query of Table 1."""

    name: str
    dataset: str  # "mbench" | "dblp" | "pers"
    shape: str
    pattern: QueryPattern


def _mbench_queries() -> list[PaperQuery]:
    q1 = build_shape(
        "a",
        [("eNest", [_attr_eq("aFour", "1")]), "eNest", "eNest",
         "eOccasional"],
        ["//", "/", "//"])
    q2 = build_shape(
        "b",
        [("eNest", [_attr_eq("aSixteen", "3")]), "eNest", "eOccasional",
         ("eNest", [_attr_eq("aFour", "2")]), "eNest"],
        ["//", "/", "//", "/"])
    return [PaperQuery("Q.Mbench.1.a", "mbench", "a", q1),
            PaperQuery("Q.Mbench.2.b", "mbench", "b", q2)]


def _dblp_queries() -> list[PaperQuery]:
    q1 = build_shape(
        "b",
        ["dblp", "article", "author", "inproceedings", "title"],
        ["/", "/", "/", "/"])
    q2 = build_shape(
        "c",
        ["dblp", "article", "title", "inproceedings", "cite", "label"],
        ["/", "/", "/", "/", "/"])
    return [PaperQuery("Q.DBLP.1.b", "dblp", "b", q1),
            PaperQuery("Q.DBLP.2.c", "dblp", "c", q2)]


def _pers_queries() -> list[PaperQuery]:
    q1 = build_shape(
        "a",
        ["manager", "employee", "name", "department"],
        ["//", "/", "//"])
    # the running example of Fig. 1 / Example 2.2
    q2 = build_shape(
        "c",
        ["manager", "employee", "name", "manager", "department", "name"],
        ["//", "/", "//", "/", "/"])
    q3 = build_shape(
        "d",
        ["manager", "employee", "name", "department", "employee",
         "manager", "name"],
        ["//", "/", "//", "/", "//", "/"])
    q4 = build_shape(
        "d",
        ["manager", "manager", "department", "employee", "phone",
         "department", "name"],
        ["//", "/", "//", "/", "//", "/"])
    return [PaperQuery("Q.Pers.1.a", "pers", "a", q1),
            PaperQuery("Q.Pers.2.c", "pers", "c", q2),
            PaperQuery("Q.Pers.3.d", "pers", "d", q3),
            PaperQuery("Q.Pers.4.d", "pers", "d", q4)]


def _attr_eq(name: str, value: str):
    from repro.core.pattern import Predicate

    return Predicate(kind="attribute", op="=", value=value, name=name)


PAPER_QUERIES: dict[str, PaperQuery] = {
    query.name: query
    for query in (_mbench_queries() + _dblp_queries() + _pers_queries())
}

#: default generator per data set, at paper-character default sizes
DATASET_GENERATORS: dict[str, Callable[..., XmlDocument]] = {
    "mbench": mbench_document,
    "dblp": dblp_document,
    "pers": personnel_document,
}


def paper_query(name: str) -> PaperQuery:
    """Look up one of the eight Table 1 queries by its paper name."""
    query = PAPER_QUERIES.get(name)
    if query is None:
        raise PatternError(
            f"unknown paper query {name!r}; known: "
            f"{sorted(PAPER_QUERIES)}")
    return query


def pattern_for(name: str) -> QueryPattern:
    """Convenience: the pattern of a paper query."""
    return paper_query(name).pattern


def dataset_document(dataset: str, **kwargs: object) -> XmlDocument:
    """Generate the default document for a data set name."""
    generator = DATASET_GENERATORS.get(dataset)
    if generator is None:
        raise PatternError(f"unknown dataset {dataset!r}")
    return generator(**kwargs)  # type: ignore[arg-type]
