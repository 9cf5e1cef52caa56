"""Baseline evaluation strategies.

These exist for two reasons: as correctness *oracles* for the
stack-tree operators and optimizers in the test suite, and as the
"really bad plan" yardstick of Example 2.2 (scan the subtree under
every candidate root).

* :class:`NestedLoopJoin` — quadratic structural join operator.
* :func:`naive_pattern_matches` — evaluate a whole pattern by brute
  force over candidate combinations (exponential; tiny inputs only).
* :func:`navigational_matches` — the navigational plan: recursive
  subtree walks from candidate roots.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.pattern import Axis, QueryPattern
from repro.document.document import XmlDocument
from repro.document.node import NodeRecord, Region
from repro.engine.operators import Operator
from repro.engine.tuples import MatchTuple


class NestedLoopJoin(Operator):
    """Quadratic structural join; output ordered by the ancestor side.

    Materializes the descendant input and probes it for every ancestor
    tuple.  Exists for oracle duty — no optimizer ever picks it.
    """

    def __init__(self, ancestor_input: Operator, descendant_input: Operator,
                 ancestor_node: int, descendant_node: int,
                 axis: Axis) -> None:
        schema = ancestor_input.schema.concat(descendant_input.schema)
        super().__init__(schema, ancestor_input.ordered_by,
                         ancestor_input.metrics)
        self.ancestor_input = ancestor_input
        self.descendant_input = descendant_input
        self.ancestor_node = ancestor_node
        self.descendant_node = descendant_node
        self.ancestor_position = ancestor_input.schema.position(ancestor_node)
        self.descendant_position = descendant_input.schema.position(
            descendant_node)
        self.axis = axis

    def _produce(self) -> Iterator[MatchTuple]:
        self.metrics.join_count += 1
        inner = list(self.descendant_input.run())
        for anc_tuple in self.ancestor_input.run():
            ancestor = anc_tuple[self.ancestor_position]
            for desc_tuple in inner:
                descendant = desc_tuple[self.descendant_position]
                if _related(ancestor, descendant, self.axis):
                    self.metrics.output_tuples += 1
                    yield anc_tuple + desc_tuple


def _related(ancestor: Region, descendant: Region, axis: Axis) -> bool:
    if not ancestor.is_ancestor_of(descendant):
        return False
    return axis is Axis.DESCENDANT or ancestor.level + 1 == descendant.level


def naive_pattern_matches(document: XmlDocument,
                          pattern: QueryPattern) -> list[dict[int, Region]]:
    """All matches of *pattern* by brute-force candidate combination.

    Exponential in pattern size; strictly a test oracle.  Returns one
    binding dict per match, in no particular order.
    """
    candidates: dict[int, list[NodeRecord]] = {}
    for pattern_node in pattern.nodes:
        pool = (document.nodes if pattern_node.is_wildcard
                else document.nodes_with_tag(pattern_node.tag))
        candidates[pattern_node.node_id] = [
            node for node in pool if pattern_node.matches(node)]

    order = list(pattern.walk_preorder())
    matches: list[dict[int, Region]] = []

    def extend(index: int, binding: dict[int, Region]) -> None:
        if index == len(order):
            matches.append(dict(binding))
            return
        node_id = order[index]
        edge = pattern.parent_edge(node_id)
        for candidate in candidates[node_id]:
            if edge is not None:
                parent_region = binding[edge.parent]
                if not _related(parent_region, candidate.region, edge.axis):
                    continue
            binding[node_id] = candidate.region
            extend(index + 1, binding)
            del binding[node_id]

    extend(0, {})
    return matches


def navigational_matches(document: XmlDocument,
                         pattern: QueryPattern) -> list[dict[int, Region]]:
    """Evaluate *pattern* navigationally (the poor plan of Example 2.2).

    For every candidate binding of the pattern root, walk the subtree
    below it to bind the remaining pattern nodes recursively.  Correct,
    and much slower than structural joins on deep data — which is the
    paper's motivation for join-based evaluation.
    """
    root_id = pattern.root
    root_node = pattern.node(root_id)

    def match_at(node_id: int,
                 data_node: NodeRecord) -> Iterator[dict[int, Region]]:
        """Bindings of the sub-pattern rooted at *node_id* onto
        *data_node* (which is assumed to satisfy the node test)."""
        edges = pattern.child_edges(node_id)

        def combine(edge_index: int) -> Iterator[dict[int, Region]]:
            if edge_index == len(edges):
                yield {node_id: data_node.region}
                return
            edge = edges[edge_index]
            child_pattern = pattern.node(edge.child)
            if edge.axis is Axis.CHILD:
                pool: list[NodeRecord] = document.children(data_node)
            else:
                pool = list(document.descendants(data_node))
            for candidate in pool:
                if not child_pattern.matches(candidate):
                    continue
                for sub_binding in match_at(edge.child, candidate):
                    for rest in combine(edge_index + 1):
                        yield {**sub_binding, **rest}

        yield from combine(0)

    matches: list[dict[int, Region]] = []
    for candidate in document:
        if root_node.matches(candidate):
            matches.extend(match_at(root_id, candidate))
    return matches
