"""Value-based joins and grouping over pattern-match results.

The paper closes with "we will also consider expensive operations
beyond structural pattern matching, such as value-based joins and
grouping" (Sec. 6).  This module prototypes that layer on top of the
structural engine:

* :class:`ValueJoin` — hash equi-join between two pattern-match
  results, comparing the *text* (or an attribute) of one bound node
  from each side.  Each side is a full tree-pattern query whose join
  order the structural optimizers have already chosen; the value join
  is evaluated on top, the way Timber would pipeline a value predicate
  after pattern matching.
* :func:`group_matches` — group a result by the data node bound to one
  pattern node, the building block of aggregation.

Costs: the hash join performs one pass over each input plus one
document lookup per tuple for the join key; lookups are
charged as index items so the simulated cost stays in the paper's
currency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanError
from repro.document.document import XmlDocument
from repro.document.node import Region
from repro.engine.executor import ExecutionResult
from repro.engine.metrics import ExecutionMetrics
from repro.engine.tuples import MatchTuple, Schema


def _key_of(document: XmlDocument, region: Region, attribute: str) -> str:
    node = document.node(region.start)
    if attribute:
        value = node.attributes.get(attribute)
        return value if value is not None else ""
    return node.text


@dataclass
class ValueJoinResult:
    """Joined rows: one (left tuple, right tuple) pair per match."""

    rows: list[tuple[MatchTuple, MatchTuple]]
    left_schema: Schema
    right_schema: Schema
    metrics: ExecutionMetrics

    def __len__(self) -> int:
        return len(self.rows)

    def keys(self, document: XmlDocument, left_node: int,
             attribute: str = "") -> list[str]:
        """The join-key values of the result rows, in row order."""
        position = self.left_schema.position(left_node)
        return [_key_of(document, left[position], attribute)
                for left, __ in self.rows]


class ValueJoin:
    """Hash equi-join of two pattern-match results on node values.

    Each side has its own key spec: the bound pattern node plus an
    optional attribute name (empty = use the element's text), so
    text-to-attribute joins like ``person/name = order/@ref`` work.
    """

    def __init__(self, document: XmlDocument,
                 left_node: int, right_node: int,
                 left_attribute: str = "",
                 right_attribute: str = "") -> None:
        self.document = document
        self.left_node = left_node
        self.right_node = right_node
        self.left_attribute = left_attribute
        self.right_attribute = right_attribute

    def join(self, left: ExecutionResult,
             right: ExecutionResult) -> ValueJoinResult:
        """Join *left* and *right* on equal key values."""
        if self.left_node not in left.schema:
            raise PlanError(
                f"left side does not bind node {self.left_node}")
        if self.right_node not in right.schema:
            raise PlanError(
                f"right side does not bind node {self.right_node}")
        metrics = ExecutionMetrics(factors=left.metrics.factors)
        right_position = right.schema.position(self.right_node)
        table: dict[str, list[MatchTuple]] = {}
        for match in right.tuples:
            key = _key_of(self.document, match[right_position],
                          self.right_attribute)
            metrics.index_items += 1  # key lookup
            if key:
                table.setdefault(key, []).append(match)

        left_position = left.schema.position(self.left_node)
        rows: list[tuple[MatchTuple, MatchTuple]] = []
        for match in left.tuples:
            key = _key_of(self.document, match[left_position],
                          self.left_attribute)
            metrics.index_items += 1
            for partner in table.get(key, ()):
                rows.append((match, partner))
        metrics.output_tuples = len(rows)
        return ValueJoinResult(rows=rows, left_schema=left.schema,
                               right_schema=right.schema,
                               metrics=metrics)


def group_matches(result: ExecutionResult,
                  by_node: int) -> dict[Region, list[MatchTuple]]:
    """Group a result's tuples by the region bound to *by_node*.

    Groups come back keyed by region (hashable, document-ordered), so
    callers can aggregate per group — e.g. matches per manager.
    """
    position = result.schema.position(by_node)
    groups: dict[Region, list[MatchTuple]] = {}
    for match in result.tuples:
        groups.setdefault(match[position], []).append(match)
    return groups


def group_counts(result: ExecutionResult,
                 by_node: int) -> dict[Region, int]:
    """Convenience: group sizes per bound region of *by_node*."""
    return {region: len(rows)
            for region, rows in group_matches(result, by_node).items()}
