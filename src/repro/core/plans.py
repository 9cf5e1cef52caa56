"""Physical evaluation plans (Sec. 2.3).

A plan is a rooted tree of physical operations: index scans at the
leaves, structural joins at internal nodes, with optional sorts.  Plans
record the estimated cardinality and cumulative estimated cost the
optimizer derived, the pattern node by which their output is ordered,
and expose the structural properties the paper's taxonomy uses:
left-deep vs. bushy, fully pipelined vs. blocking (Fig. 2).

The module is also the only holder of the **plan identity**.
:meth:`PhysicalPlan.signature` is the one writer of the grammar ::

    plan := "scan(" N ")" | "sort[" N "](" plan ")"
          | ALGORITHM "[" N AXIS N "](" plan "," plan ")"

with ``N`` a pattern-node id, or — written through
:func:`~repro.core.pattern.canonical_ranks` — a renumbering-invariant
rank: the :func:`canonical_plan_digest` the query log stores and
``audit`` / ``whatif --force`` exchange.  :func:`parse_plan_digest`,
:func:`plan_digest_diff` and :func:`plan_from_digest` read that
grammar back; every way they can fail is a
:class:`~repro.errors.PlanError`.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import PlanError
from repro.core.pattern import Axis, QueryPattern, canonical_ranks


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

    def output_nodes(self) -> tuple[int, ...]:
        """The same ids in column order — the layout of this plan's
        rows on either engine and on a shard fleet: a scan's node, a
        sort's child's columns, a join's ancestor columns then its
        descendant's."""
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

    def signature(self, labels: Mapping[int, int] | None = None) -> str:
        """Compact one-line structural identity in the module's
        grammar; *labels* replaces every pattern-node id (see
        :func:`canonical_plan_digest`)."""
        raise NotImplementedError


def _written(labels: Mapping[int, int] | None, node_id: int) -> int:
    return node_id if labels is None else labels[node_id]


class IndexScanPlan(PhysicalPlan):
    """Leaf: retrieve the candidate set of one pattern node."""

    def __init__(self, node_id: int,
                 estimated_cardinality: float = 0.0,
                 estimated_cost: float = 0.0) -> None:
        super().__init__(node_id, estimated_cardinality, estimated_cost)
        self.node_id = node_id

    def pattern_nodes(self) -> frozenset[int]:
        return frozenset((self.node_id,))

    def output_nodes(self) -> tuple[int, ...]:
        return (self.node_id,)

    def label(self, pattern: QueryPattern | None = None) -> str:
        return f"IndexScan({self._node_label(pattern, self.node_id)})"

    def signature(self, labels: Mapping[int, int] | None = None) -> str:
        return f"scan({_written(labels, self.node_id)})"


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

    def output_nodes(self) -> tuple[int, ...]:
        return (self.ancestor_plan.output_nodes()
                + self.descendant_plan.output_nodes())

    def label(self, pattern: QueryPattern | None = None) -> str:
        return (f"{self.algorithm}"
                f"({self._node_label(pattern, self.ancestor_node)} "
                f"{self.axis} "
                f"{self._node_label(pattern, self.descendant_node)})")

    def signature(self, labels: Mapping[int, int] | None = None) -> str:
        return (f"{self.algorithm.value}"
                f"[{_written(labels, self.ancestor_node)}{self.axis}"
                f"{_written(labels, self.descendant_node)}]"
                f"({self.ancestor_plan.signature(labels)},"
                f"{self.descendant_plan.signature(labels)})")


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

    def output_nodes(self) -> tuple[int, ...]:
        return self.child.output_nodes()

    def label(self, pattern: QueryPattern | None = None) -> str:
        return f"Sort(by {self._node_label(pattern, self.by_node)})"

    def signature(self, labels: Mapping[int, int] | None = None) -> str:
        return (f"sort[{_written(labels, self.by_node)}]"
                f"({self.child.signature(labels)})")


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


def remap_plan(plan: PhysicalPlan,
               mapping: Mapping[int, int]) -> PhysicalPlan:
    """Rewrite *plan* with its pattern-node ids sent through *mapping*
    (a fresh tree; the annotations ride along)."""
    if isinstance(plan, IndexScanPlan):
        return IndexScanPlan(mapping[plan.node_id],
                             plan.estimated_cardinality,
                             plan.estimated_cost)
    if isinstance(plan, SortPlan):
        return SortPlan(remap_plan(plan.child, mapping),
                        mapping[plan.by_node],
                        plan.estimated_cardinality, plan.estimated_cost)
    if isinstance(plan, StructuralJoinPlan):
        return StructuralJoinPlan(
            remap_plan(plan.ancestor_plan, mapping),
            remap_plan(plan.descendant_plan, mapping),
            mapping[plan.ancestor_node], mapping[plan.descendant_node],
            plan.axis, plan.algorithm,
            plan.estimated_cardinality, plan.estimated_cost)
    raise PlanError(f"unknown plan node type {type(plan).__name__}")


# -- the canonical digest: written, parsed, diffed, rebuilt --------------------

def canonical_plan_digest(plan: PhysicalPlan,
                          pattern: QueryPattern) -> str:
    """*plan*'s signature written in canonical node ranks.

    XPath compilation numbers pattern nodes by traversal order, so the
    same logical plan over two isomorphic patterns prints different
    ``signature()`` strings; in ranks the digest is stable across
    renumbering.  The query log stores it so the plan auditor can
    replay a recompiled query and compare plans without false flips.
    """
    return plan.signature(canonical_ranks(pattern))


@dataclass(frozen=True, slots=True)
class DigestNode:
    """One operator parsed out of a digest: a scan has no children, a
    sort one, a join two (and an axis and an algorithm)."""

    #: the operator as written, without its inputs: ``scan(2)``,
    #: ``sort[1]``, ``stack-tree-anc[1//0]``
    head: str
    #: scan rank / sort by-rank / join (ancestor, descendant) ranks
    ranks: tuple[int, ...]
    axis: str = ""
    algorithm: JoinAlgorithm | None = None
    children: tuple["DigestNode", ...] = ()

    def walk(self) -> Iterator["DigestNode"]:
        """This operator and all below it, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()


_DIGEST_HEAD = re.compile(
    r"scan\((?P<scan>[0-9]{1,6})\)"
    r"|sort\[(?P<sort>[0-9]{1,6})\]\("
    r"|(?P<algorithm>[^()\[\],]*)"
    r"\[(?P<anc>[0-9]{1,6})(?P<axis>//?)(?P<desc>[0-9]{1,6})\]\(")

#: a digest nests one level per join or sort; no pattern the compiler
#: accepts comes near this, and it keeps a hostile log line from
#: exhausting the interpreter's stack.
_MAX_DIGEST_DEPTH = 200


def parse_plan_digest(digest: str) -> DigestNode:
    """Parse the module grammar back into a tree of operators."""
    pos = 0

    def fail(expected: str) -> PlanError:
        return PlanError(f"bad plan digest at offset {pos}: expected "
                         f"{expected} in {digest!r}")

    def expect(token: str) -> None:
        nonlocal pos
        if not digest.startswith(token, pos):
            raise fail(repr(token))
        pos += len(token)

    def parse(depth: int) -> DigestNode:
        nonlocal pos
        match = _DIGEST_HEAD.match(digest, pos)
        if match is None or depth > _MAX_DIGEST_DEPTH:
            raise fail("an operator")
        pos = match.end()
        if match["scan"] is not None:
            return DigestNode(match[0], (int(match["scan"]),))
        head = match[0][:-1]
        if match["sort"] is not None:
            child = parse(depth + 1)
            expect(")")
            return DigestNode(head, (int(match["sort"]),),
                              children=(child,))
        try:
            algorithm = JoinAlgorithm(match["algorithm"])
        except ValueError:
            raise PlanError(
                f"unknown join algorithm {match['algorithm']!r} in "
                f"plan digest {digest!r}") from None
        ancestor = parse(depth + 1)
        expect(",")
        descendant = parse(depth + 1)
        expect(")")
        return DigestNode(head, (int(match["anc"]), int(match["desc"])),
                          match["axis"], algorithm,
                          (ancestor, descendant))

    tree = parse(0)
    if pos != len(digest):
        raise fail("end of digest")
    return tree


def plan_digest_diff(old_digest: str,
                     new_digest: str) -> dict[str, object]:
    """Operator-multiset diff between two canonical plan digests.

    Returns ``{"removed": [...], "added": [...], "unchanged": N}`` —
    the operators only the old plan has, only the new plan has, and
    the count both share.  An empty removed+added means the plans are
    structurally identical (possibly different operator order in the
    digest tree, which the multiset view deliberately ignores).
    """
    old_ops = Counter(node.head
                      for node in parse_plan_digest(old_digest).walk())
    new_ops = Counter(node.head
                      for node in parse_plan_digest(new_digest).walk())
    return {
        "removed": sorted((old_ops - new_ops).elements()),
        "added": sorted((new_ops - old_ops).elements()),
        "unchanged": sum((old_ops & new_ops).values()),
    }


#: complete scan assignments :func:`plan_from_digest` tries before it
#: gives up on a digest whose ranks are heavily shared.
_MAX_ASSIGNMENTS = 5000


def plan_from_digest(digest: str, pattern: QueryPattern) -> PhysicalPlan:
    """Rebuild a physical plan for *pattern* from a canonical digest.

    Canonical ranks are mapped back to pattern-node ids; when several
    nodes share a rank (interchangeable subtrees) the assignment is
    searched with backtracking until the joins line up with pattern
    edges — any signature-respecting assignment yields a semantically
    equivalent plan, which is the same freedom :func:`remap_plan` has.
    The returned plan carries zeroed cost annotations; price it with
    :func:`~repro.core.enumeration.estimate_plan_cost`.
    """
    tree = parse_plan_digest(digest)
    labels = canonical_ranks(pattern)
    pools: dict[int, list[int]] = {}
    for node_id, rank in sorted(labels.items()):
        pools.setdefault(rank, []).append(node_id)

    # pre-order, which is the order ``construct`` consumes them in
    scan_slots = [node for node in tree.walk() if not node.children]
    if len(scan_slots) != len(pattern):
        raise PlanError(
            f"digest binds {len(scan_slots)} scans, pattern has "
            f"{len(pattern)} nodes")

    assignment: dict[int, int] = {}  # index in scan_slots -> node id
    used: set[int] = set()
    attempts = 0

    def ranked(plan: PhysicalPlan, rank: int) -> list[int]:
        return sorted(node_id for node_id in plan.pattern_nodes()
                      if labels[node_id] == rank)

    def construct(node: DigestNode, slots: Iterator[int]) -> PhysicalPlan:
        """Build the plan bottom-up from the current full assignment."""
        if not node.children:
            return IndexScanPlan(assignment[next(slots)])
        if len(node.children) == 1:
            child = construct(node.children[0], slots)
            matches = ranked(child, node.ranks[0])
            if not matches:
                raise PlanError("sort by a rank its input does not bind")
            return SortPlan(child, matches[0])
        ancestor = construct(node.children[0], slots)
        descendant = construct(node.children[1], slots)
        assert node.algorithm is not None
        for anc_id in ranked(ancestor, node.ranks[0]):
            for desc_id in ranked(descendant, node.ranks[1]):
                edge = pattern.edge_between(anc_id, desc_id)
                if (edge is not None
                        and (edge.parent, edge.child) == (anc_id, desc_id)
                        and str(edge.axis) == node.axis):
                    return StructuralJoinPlan(
                        ancestor, descendant, anc_id, desc_id,
                        edge.axis, node.algorithm)
        raise PlanError("join on no pattern edge")

    def assign(index: int) -> PhysicalPlan | None:
        nonlocal attempts
        if index == len(scan_slots):
            attempts += 1
            try:
                plan = construct(tree, iter(range(len(scan_slots))))
                validate_plan(plan, pattern)
                return plan
            except PlanError:
                return None
        if attempts >= _MAX_ASSIGNMENTS:
            return None
        for node_id in pools.get(scan_slots[index].ranks[0], ()):
            if node_id in used:
                continue
            assignment[index] = node_id
            used.add(node_id)
            plan = assign(index + 1)
            used.discard(node_id)
            if plan is not None:
                return plan
        return None

    plan = assign(0)
    if plan is None:
        raise PlanError(
            f"could not reconstruct a valid plan for the pattern from "
            f"digest {digest!r}")
    return plan
