"""Stack-Tree structural join operators (Al-Khalifa et al., ICDE 2002).

Both operators merge two document-ordered tuple streams — one supplying
bindings for the ancestor pattern node, one for the descendant — using
a stack of ancestor bindings.  Because all regions come from one tree,
any two overlapping regions are nested, which is the invariant that
makes the stack linear-time.

* :class:`StackTreeDescJoin` emits output ordered by the *descendant*
  binding.  It is fully streaming: cost is pure stack work
  (``2 |A| f_st`` in the cost model).
* :class:`StackTreeAncJoin` emits output ordered by the *ancestor*
  binding.  Results for an ancestor cannot be emitted until that
  ancestor leaves the stack, so the operator buffers them in the
  classic *self-list / inherit-list* structure — the buffering is what
  the cost model charges as ``2 |AB| f_IO``.

Intermediate streams may bind the same data node in many tuples, so
the operators work on *groups* of tuples sharing the join-column region
(see :func:`repro.engine.operators.group_by_column`) and emit group
cross-products.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.pattern import Axis
from repro.document.node import Region
from repro.engine.operators import (Operator, OrderCheckingIterator,
                                    group_by_column)
from repro.engine.tuples import MatchTuple


class _JoinBase(Operator):
    """Shared setup for the two stack-tree operators."""

    def __init__(self, ancestor_input: Operator, descendant_input: Operator,
                 ancestor_node: int, descendant_node: int,
                 axis: Axis, ordered_by: int) -> None:
        schema = ancestor_input.schema.concat(descendant_input.schema)
        super().__init__(schema, ordered_by, ancestor_input.metrics)
        self.ancestor_input = ancestor_input
        self.descendant_input = descendant_input
        self.ancestor_node = ancestor_node
        self.descendant_node = descendant_node
        self.axis = axis

    def _grouped_inputs(self):
        ancestor_stream = OrderCheckingIterator(
            self.ancestor_input.run(), self.ancestor_input.schema,
            self.ancestor_node, label="ancestor input")
        descendant_stream = OrderCheckingIterator(
            self.descendant_input.run(), self.descendant_input.schema,
            self.descendant_node, label="descendant input")
        ancestor_groups = group_by_column(
            iter(ancestor_stream), self.ancestor_input.schema,
            self.ancestor_node)
        descendant_groups = group_by_column(
            iter(descendant_stream), self.descendant_input.schema,
            self.descendant_node)
        return ancestor_groups, descendant_groups

    def _qualifies(self, ancestor: Region, descendant: Region) -> bool:
        """Containment (plus the level test for parent/child edges)."""
        if ancestor.end < descendant.end:
            return False
        if self.axis is Axis.CHILD:
            return ancestor.level + 1 == descendant.level
        return True


class StackTreeDescJoin(_JoinBase):
    """Structural join producing output ordered by the descendant."""

    def __init__(self, ancestor_input: Operator, descendant_input: Operator,
                 ancestor_node: int, descendant_node: int,
                 axis: Axis) -> None:
        super().__init__(ancestor_input, descendant_input,
                         ancestor_node, descendant_node, axis,
                         ordered_by=descendant_node)

    def _produce(self) -> Iterator[MatchTuple]:
        self.metrics.join_count += 1
        ancestor_groups, descendant_groups = self._grouped_inputs()
        stack: list[tuple[Region, list[MatchTuple]]] = []
        pending = next(ancestor_groups, None)
        for desc_region, desc_tuples in descendant_groups:
            while pending is not None and pending[0].start < desc_region.start:
                while stack and stack[-1][0].end < pending[0].start:
                    stack.pop()
                stack.append(pending)
                self.metrics.stack_tuple_ops += len(pending[1])
                pending = next(ancestor_groups, None)
            while stack and stack[-1][0].end < desc_region.start:
                stack.pop()
            for anc_region, anc_tuples in stack:
                if self._qualifies(anc_region, desc_region):
                    for desc_tuple in desc_tuples:
                        for anc_tuple in anc_tuples:
                            self.metrics.output_tuples += 1
                            yield anc_tuple + desc_tuple
        # The pull loop above stops at the first ancestor group past
        # the final descendant, which would leave the ancestor subtree
        # partially consumed — but the cost model prices an index scan
        # as f_I * n over the full candidate set, and the block engine
        # charges whole posting lists up front, so consumption (and
        # with it every consumption-driven counter) is made total.
        for _remainder in ancestor_groups:
            pass


class _AncEntry:
    """Stack entry of the Anc join: bindings plus buffered results."""

    __slots__ = ("region", "tuples", "self_blocks", "inherited")

    def __init__(self, region: Region, tuples: list[MatchTuple]) -> None:
        self.region = region
        self.tuples = tuples
        # groups of descendant tuples matched with this entry
        self.self_blocks: list[list[MatchTuple]] = []
        # fully-ordered output inherited from popped nested entries
        self.inherited: list[MatchTuple] = []

    def drain(self) -> list[MatchTuple]:
        """Expand buffered results, self pairs first, in order."""
        output: list[MatchTuple] = []
        for block in self.self_blocks:
            for anc_tuple in self.tuples:
                for desc_tuple in block:
                    output.append(anc_tuple + desc_tuple)
        output.extend(self.inherited)
        return output


class StackTreeAncJoin(_JoinBase):
    """Structural join producing output ordered by the ancestor."""

    def __init__(self, ancestor_input: Operator, descendant_input: Operator,
                 ancestor_node: int, descendant_node: int,
                 axis: Axis) -> None:
        super().__init__(ancestor_input, descendant_input,
                         ancestor_node, descendant_node, axis,
                         ordered_by=ancestor_node)

    def _produce(self) -> Iterator[MatchTuple]:
        self.metrics.join_count += 1
        ancestor_groups, descendant_groups = self._grouped_inputs()
        stack: list[_AncEntry] = []

        def pop_one() -> Iterator[MatchTuple]:
            entry = stack.pop()
            drained = entry.drain()
            if stack:
                stack[-1].inherited.extend(drained)
            else:
                self.metrics.output_tuples += len(drained)
                yield from drained

        pending = next(ancestor_groups, None)
        for desc_region, desc_tuples in descendant_groups:
            while pending is not None and pending[0].start < desc_region.start:
                while stack and stack[-1].region.end < pending[0].start:
                    yield from pop_one()
                stack.append(_AncEntry(pending[0], pending[1]))
                self.metrics.stack_tuple_ops += len(pending[1])
                pending = next(ancestor_groups, None)
            while stack and stack[-1].region.end < desc_region.start:
                yield from pop_one()
            for entry in stack:
                if self._qualifies(entry.region, desc_region):
                    entry.self_blocks.append(desc_tuples)
                    self.metrics.buffered_results += (
                        len(entry.tuples) * len(desc_tuples))
        while stack:
            yield from pop_one()
        # Exhaust the ancestor side for total consumption — same
        # rationale as in StackTreeDescJoin above.
        for _remainder in ancestor_groups:
            pass
