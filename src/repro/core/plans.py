"""Physical evaluation plans (Sec. 2.3).

A plan is a rooted tree of physical operations: index scans at the
leaves, structural joins at internal nodes, with optional sorts.  Plans
record the estimated cardinality and cumulative estimated cost the
optimizer derived, the pattern node by which their output is ordered,
and expose the structural properties the paper's taxonomy uses:
left-deep vs. bushy, fully pipelined vs. blocking (Fig. 2).
"""

from __future__ import annotations

import enum
from typing import Iterator

from repro.errors import PlanError
from repro.core.pattern import Axis, QueryPattern


class JoinAlgorithm(enum.Enum):
    """Physical structural-join algorithm (Sec. 2.2.1)."""

    STACK_TREE_ANC = "stack-tree-anc"
    STACK_TREE_DESC = "stack-tree-desc"
    NESTED_LOOP = "nested-loop"

    def __str__(self) -> str:
        return self.value


class PhysicalPlan:
    """Base class for plan nodes.

    Attributes
    ----------
    ordered_by:
        Pattern-node id whose region start orders the output stream.
    estimated_cardinality, estimated_cost:
        Optimizer annotations; ``estimated_cost`` is cumulative over the
        subtree.
    """

    def __init__(self, ordered_by: int,
                 estimated_cardinality: float = 0.0,
                 estimated_cost: float = 0.0) -> None:
        self.ordered_by = ordered_by
        self.estimated_cardinality = estimated_cardinality
        self.estimated_cost = estimated_cost

    # -- structure -----------------------------------------------------------

    def children(self) -> tuple["PhysicalPlan", ...]:
        return ()

    def pattern_nodes(self) -> frozenset[int]:
        """Pattern-node ids bound by this plan's output tuples."""
        raise NotImplementedError

    def walk(self) -> Iterator["PhysicalPlan"]:
        """This node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    # -- taxonomy (Fig. 2) ------------------------------------------------------

    @property
    def is_fully_pipelined(self) -> bool:
        """True if no blocking operator (sort) appears anywhere."""
        return not any(isinstance(node, SortPlan) for node in self.walk())

    @property
    def is_left_deep(self) -> bool:
        """True if every join has at least one scan-leaf input.

        This is the XML analogue of relational left-deep plans: one
        "growing" intermediate result joined with base node sets.
        """
        for node in self.walk():
            if isinstance(node, StructuralJoinPlan):
                sides_with_joins = sum(
                    1 for side in node.children()
                    if any(isinstance(inner, StructuralJoinPlan)
                           for inner in side.walk()))
                if sides_with_joins > 1:
                    return False
        return True

    def join_count(self) -> int:
        return sum(1 for node in self.walk()
                   if isinstance(node, StructuralJoinPlan))

    def sort_count(self) -> int:
        return sum(1 for node in self.walk()
                   if isinstance(node, SortPlan))

    # -- rendering ---------------------------------------------------------------

    def label(self, pattern: QueryPattern | None = None) -> str:
        """One-line name of this operator, e.g.
        ``stack-tree-anc($0:manager // $1:employee)`` — the one
        spelling :meth:`explain`, span ``detail``, query-log records
        and the dot export all use, on either engine."""
        raise NotImplementedError

    def _node_label(self, pattern: QueryPattern | None,
                    node_id: int) -> str:
        if pattern is None:
            return f"${node_id}"
        return f"${node_id}:{pattern.node(node_id).label()}"

    def explain(self, pattern: QueryPattern | None = None) -> str:
        """Multi-line, indented plan rendering."""
        lines: list[str] = []

        def visit(node: PhysicalPlan, depth: int) -> None:
            order = (f" order-by=${node.ordered_by}"
                     if isinstance(node, StructuralJoinPlan) else "")
            lines.append(f"{'  ' * depth}{node.label(pattern)}{order}"
                         f" card={node.estimated_cardinality:.1f}"
                         f" cost={node.estimated_cost:.1f}")
            for child in node.children():
                visit(child, depth + 1)

        visit(self, 0)
        return "\n".join(lines)

    def signature(self) -> str:
        """Compact one-line structural identity (tests, dedup)."""
        raise NotImplementedError


class IndexScanPlan(PhysicalPlan):
    """Leaf: retrieve the candidate set of one pattern node."""

    def __init__(self, node_id: int,
                 estimated_cardinality: float = 0.0,
                 estimated_cost: float = 0.0) -> None:
        super().__init__(node_id, estimated_cardinality, estimated_cost)
        self.node_id = node_id

    def pattern_nodes(self) -> frozenset[int]:
        return frozenset((self.node_id,))

    def label(self, pattern: QueryPattern | None = None) -> str:
        return f"IndexScan({self._node_label(pattern, self.node_id)})"

    def signature(self) -> str:
        return f"scan({self.node_id})"


class StructuralJoinPlan(PhysicalPlan):
    """Binary structural join.

    ``ancestor_plan`` supplies bindings for ``ancestor_node`` (ordered
    by it); ``descendant_plan`` supplies ``descendant_node``.  The
    algorithm fixes the output order: Stack-Tree-Anc orders by the
    ancestor node, Stack-Tree-Desc by the descendant node.
    """

    def __init__(self, ancestor_plan: PhysicalPlan,
                 descendant_plan: PhysicalPlan,
                 ancestor_node: int, descendant_node: int,
                 axis: Axis, algorithm: JoinAlgorithm,
                 estimated_cardinality: float = 0.0,
                 estimated_cost: float = 0.0) -> None:
        if algorithm is JoinAlgorithm.STACK_TREE_ANC:
            ordered_by = ancestor_node
        elif algorithm is JoinAlgorithm.STACK_TREE_DESC:
            ordered_by = descendant_node
        else:
            ordered_by = ancestor_plan.ordered_by
        super().__init__(ordered_by, estimated_cardinality, estimated_cost)
        if ancestor_node not in ancestor_plan.pattern_nodes():
            raise PlanError(f"ancestor node {ancestor_node} not produced "
                            "by the ancestor input")
        if descendant_node not in descendant_plan.pattern_nodes():
            raise PlanError(f"descendant node {descendant_node} not "
                            "produced by the descendant input")
        overlap = (ancestor_plan.pattern_nodes()
                   & descendant_plan.pattern_nodes())
        if overlap:
            raise PlanError(f"join inputs overlap on {sorted(overlap)}")
        self.ancestor_plan = ancestor_plan
        self.descendant_plan = descendant_plan
        self.ancestor_node = ancestor_node
        self.descendant_node = descendant_node
        self.axis = axis
        self.algorithm = algorithm

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.ancestor_plan, self.descendant_plan)

    def pattern_nodes(self) -> frozenset[int]:
        return (self.ancestor_plan.pattern_nodes()
                | self.descendant_plan.pattern_nodes())

    def label(self, pattern: QueryPattern | None = None) -> str:
        return (f"{self.algorithm}"
                f"({self._node_label(pattern, self.ancestor_node)} "
                f"{self.axis} "
                f"{self._node_label(pattern, self.descendant_node)})")

    def signature(self) -> str:
        return (f"{self.algorithm.value}[{self.ancestor_node}"
                f"{self.axis}{self.descendant_node}]"
                f"({self.ancestor_plan.signature()},"
                f"{self.descendant_plan.signature()})")


class SortPlan(PhysicalPlan):
    """Blocking re-order of a tuple stream by one bound node."""

    def __init__(self, child: PhysicalPlan, by_node: int,
                 estimated_cardinality: float = 0.0,
                 estimated_cost: float = 0.0) -> None:
        super().__init__(by_node, estimated_cardinality, estimated_cost)
        if by_node not in child.pattern_nodes():
            raise PlanError(f"cannot sort by unbound node {by_node}")
        self.child = child
        self.by_node = by_node

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def pattern_nodes(self) -> frozenset[int]:
        return self.child.pattern_nodes()

    def label(self, pattern: QueryPattern | None = None) -> str:
        return f"Sort(by {self._node_label(pattern, self.by_node)})"

    def signature(self) -> str:
        return f"sort[{self.by_node}]({self.child.signature()})"


def validate_plan(plan: PhysicalPlan, pattern: QueryPattern) -> None:
    """Check that *plan* evaluates exactly the given pattern.

    Raises :class:`~repro.errors.PlanError` if any pattern node is
    missing or duplicated, or if a join does not correspond to a
    pattern edge with the right axis and orientation.
    """
    bound = plan.pattern_nodes()
    expected = frozenset(range(len(pattern)))
    if bound != expected:
        raise PlanError(f"plan binds {sorted(bound)}, pattern has "
                        f"{sorted(expected)}")
    for node in plan.walk():
        if isinstance(node, StructuralJoinPlan):
            edge = pattern.edge_between(node.ancestor_node,
                                        node.descendant_node)
            if edge is None:
                raise PlanError(
                    f"join on ({node.ancestor_node}, "
                    f"{node.descendant_node}): no such pattern edge")
            if (edge.parent, edge.child) != (node.ancestor_node,
                                             node.descendant_node):
                raise PlanError(
                    f"join on ({node.ancestor_node}, "
                    f"{node.descendant_node}) is inverted: pattern edge "
                    f"is ({edge.parent}, {edge.child})")
            if edge.axis is not node.axis:
                raise PlanError(
                    f"join axis {node.axis} does not match pattern edge "
                    f"axis {edge.axis}")
