"""Index scan operator.

Retrieves the candidate set of one pattern node from the tag index (in
document order), applies the node's value predicates, and emits
single-binding tuples.  Retrieval is charged per posting
(``index_items``), matching the paper's ``f_I * n`` index-access cost;
a value predicate reads the element's text or attributes from the
context's document.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.core.pattern import PatternNode
from repro.engine.context import EngineContext
from repro.engine.operators import Operator
from repro.engine.tuples import MatchTuple, Schema


class IndexScan(Operator):
    """Leaf operator: candidates of one pattern node, document order."""

    def __init__(self, pattern_node: PatternNode,
                 context: EngineContext) -> None:
        super().__init__(Schema((pattern_node.node_id,)),
                         pattern_node.node_id, context.metrics)
        self.pattern_node = pattern_node
        self.context = context

    def _postings(self):
        index = self.context.tag_index
        if self.pattern_node.is_wildcard:
            streams = [index.scan(tag) for tag in index.tags()]
            return heapq.merge(*streams, key=lambda region: region.start)
        return index.scan(self.pattern_node.tag)

    def _produce(self) -> Iterator[MatchTuple]:
        needs_payload = bool(self.pattern_node.predicates)
        matches = self.pattern_node.matches
        node = self.context.document.node
        for region in self._postings():
            self.metrics.index_items += 1
            if needs_payload and not matches(node(region.start)):
                continue
            yield (region,)
