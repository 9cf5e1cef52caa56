"""Holistic twig join (TwigStack) — the paper's future-work baseline.

The paper's Sec. 6 names "multi-way structural joins as in [5]"
(Bruno, Koudas, Srivastava — *Holistic Twig Joins*, SIGMOD 2002) as the
next access method to integrate.  This module implements that
algorithm so the repository can compare the binary-join plans the
optimizers produce against a single holistic operator:

* **Phase 1** streams every pattern node's candidates through a chain
  of linked stacks, using ``getNext``'s look-ahead to push only
  elements that participate in some root-to-leaf *path* solution
  (optimal for ancestor/descendant edges; parent/child edges are
  filtered during expansion, as in the original paper's discussion).
* **Phase 2** merge-joins the per-leaf path solutions on their shared
  pattern prefix into full twig matches.

The matcher reads the same tag-index streams as the iterator engine
and reports into the same :class:`~repro.engine.metrics.ExecutionMetrics`
(stack pushes count as stack work; buffered path solutions count as
buffered results), so holistic-vs-binary comparisons use one currency.
"""

from __future__ import annotations

from operator import itemgetter

from repro.errors import PlanError
from repro.core.pattern import Axis, QueryPattern
from repro.document.node import Region
from repro.engine.context import EngineContext
from repro.engine.executor import ExecutionResult, region_view
from repro.engine.scan import IndexScan
from repro.engine.tuples import LabelRow, PackedRows, Schema

#: Sentinel region returned by exhausted cursors (+infinity start).
_END = Region(2**31 - 2, 2**31 - 2, 0)


class _Cursor:
    """Advancing cursor over one pattern node's candidate regions."""

    __slots__ = ("regions", "position")

    def __init__(self, regions: list[Region]) -> None:
        self.regions = regions
        self.position = 0

    @property
    def eof(self) -> bool:
        return self.position >= len(self.regions)

    @property
    def head(self) -> Region:
        if self.eof:
            return _END
        return self.regions[self.position]

    def advance(self) -> None:
        if not self.eof:
            self.position += 1


class _StackEntry:
    """A stack element: region + link to the parent stack's top."""

    __slots__ = ("region", "parent_index")

    def __init__(self, region: Region, parent_index: int) -> None:
        self.region = region
        self.parent_index = parent_index


class TwigStackMatcher:
    """Evaluates a whole pattern with one holistic twig join."""

    def __init__(self, pattern: QueryPattern,
                 context: EngineContext) -> None:
        self.pattern = pattern
        self.context = context
        self.metrics = context.metrics
        self._cursors: dict[int, _Cursor] = {}
        self._stacks: dict[int, list[_StackEntry]] = {}
        # per leaf: accumulated path solutions (dict node -> region)
        self._paths: dict[int, list[dict[int, Region]]] = {}

    # -- phase 1: path solutions -----------------------------------------

    def _load_streams(self) -> None:
        self._subtree_leaves: dict[int, list[int]] = {}
        for node in self.pattern.nodes:
            scan = IndexScan(node, self.context)
            regions = [match[0] for match in scan.run()]
            self._cursors[node.node_id] = _Cursor(regions)
            self._stacks[node.node_id] = []
            if not self.pattern.children(node.node_id):
                self._paths[node.node_id] = []
        for node in self.pattern.nodes:
            self._subtree_leaves[node.node_id] = [
                leaf for leaf in self.pattern.subtree_nodes(node.node_id)
                if not self.pattern.children(leaf)]

    def _live(self, q: int) -> bool:
        """Can the subtree of *q* still emit new path solutions?

        A branch whose leaf streams are all exhausted is *dead*: its
        path solutions are already buffered, and new pushes above it
        only matter for the remaining live branches — so dead branches
        are excluded from the look-ahead instead of terminating it
        (the original presentation leaves this stream-end case open).
        """
        return any(not self._cursors[leaf].eof
                   for leaf in self._subtree_leaves[q])

    def _get_next(self, q: int) -> int:
        """The TwigStack look-ahead: the next node whose head element
        is guaranteed extensible into a path solution below ``q``."""
        children = [child for child in self.pattern.children(q)
                    if self._live(child)]
        if not children:
            return q
        min_child = -1
        max_child = -1
        for child in children:
            result = self._get_next(child)
            if result != child:
                return result
            head = self._cursors[child].head.start
            if min_child < 0 or head < self._cursors[min_child].head.start:
                min_child = child
            if max_child < 0 or head > self._cursors[max_child].head.start:
                max_child = child
        cursor = self._cursors[q]
        max_start = self._cursors[max_child].head.start
        while cursor.head.end < max_start:
            cursor.advance()
        if cursor.head.start < self._cursors[min_child].head.start:
            return q
        return min_child

    def _clean_stack(self, q: int, next_start: int) -> None:
        stack = self._stacks[q]
        while stack and stack[-1].region.end < next_start:
            stack.pop()

    def run(self) -> ExecutionResult:
        """Produce all matches of the pattern."""
        self._load_streams()
        pattern = self.pattern
        root = pattern.root
        while self._live(root):
            q = self._get_next(root)
            cursor = self._cursors[q]
            if cursor.eof:
                break  # returned subtree has no extensible head left
            parent_edge = pattern.parent_edge(q)
            if parent_edge is not None:
                self._clean_stack(parent_edge.parent, cursor.head.start)
            if parent_edge is None or self._stacks[parent_edge.parent]:
                self._clean_stack(q, cursor.head.start)
                parent_top = (len(self._stacks[parent_edge.parent]) - 1
                              if parent_edge is not None else -1)
                entry = _StackEntry(cursor.head, parent_top)
                self.metrics.stack_tuple_ops += 1
                if pattern.children(q):
                    self._stacks[q].append(entry)
                else:
                    self._stacks[q].append(entry)
                    self._emit_path_solutions(q)
                    self._stacks[q].pop()
            cursor.advance()
        return self._merge_paths()

    def _emit_path_solutions(self, leaf: int) -> None:
        """Expand the stack chain of *leaf* into path solutions."""
        solutions = self._paths[leaf]

        def expand(q: int, index: int,
                   binding: dict[int, Region]) -> None:
            entry = self._stacks[q][index]
            binding[q] = entry.region
            edge = self.pattern.parent_edge(q)
            if edge is None:
                solutions.append(dict(binding))
                self.metrics.buffered_results += 1
            else:
                parent = edge.parent
                for parent_index in range(entry.parent_index + 1):
                    parent_region = self._stacks[parent][
                        parent_index].region
                    if edge.axis is Axis.CHILD and (
                            parent_region.level + 1
                            != entry.region.level):
                        continue
                    expand(parent, parent_index, binding)
            del binding[q]

        expand(leaf, len(self._stacks[leaf]) - 1, {})

    # -- phase 2: merge ---------------------------------------------------------

    def _merge_paths(self) -> ExecutionResult:
        pattern = self.pattern
        leaves = sorted(self._paths)
        if not leaves:
            raise PlanError("pattern has no leaves")  # pragma: no cover
        combined = self._paths[leaves[0]]
        covered = set(self._path_nodes(leaves[0]))
        for leaf in leaves[1:]:
            incoming = self._paths[leaf]
            incoming_nodes = set(self._path_nodes(leaf))
            shared = sorted(covered & incoming_nodes)
            index: dict[tuple[Region, ...],
                        list[dict[int, Region]]] = {}
            for binding in incoming:
                key = tuple(binding[node] for node in shared)
                index.setdefault(key, []).append(binding)
            merged: list[dict[int, Region]] = []
            for binding in combined:
                key = tuple(binding[node] for node in shared)
                for other in index.get(key, ()):
                    merged.append({**binding, **other})
            combined = merged
            covered |= incoming_nodes

        schema = Schema(tuple(sorted(covered)))
        rows: list[LabelRow] = [
            tuple(binding[node].start for node in schema.node_ids)
            for binding in combined]
        rows.sort(key=itemgetter(0))
        self.metrics.output_tuples += len(rows)
        return ExecutionResult(
            rows=PackedRows.of_tuples(rows, len(schema)), schema=schema,
            metrics=self.metrics,
            regions=region_view(self.context.document, len(schema)))

    def _path_nodes(self, leaf: int) -> list[int]:
        """Pattern nodes on the root-to-leaf path of *leaf*."""
        nodes = [leaf]
        edge = self.pattern.parent_edge(leaf)
        while edge is not None:
            nodes.append(edge.parent)
            edge = self.pattern.parent_edge(edge.parent)
        nodes.reverse()
        return nodes


def holistic_matches(pattern: QueryPattern,
                     context: EngineContext) -> ExecutionResult:
    """Convenience wrapper: evaluate *pattern* with one TwigStack."""
    import time

    run = context.for_run()
    metrics = run.metrics
    matcher = TwigStackMatcher(pattern, run)
    started = time.perf_counter()
    result = matcher.run()
    metrics.wall_seconds = time.perf_counter() - started
    return result
