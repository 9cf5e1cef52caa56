"""Engine-independent counting oracle.

Counts the embeddings of a tree pattern in an XML text by a bottom-up
pass over the document re-parsed with :mod:`xml.etree` — no index, no
region labels, no join, no plan.  The only thing it shares with the
program is the *definition* of the query: a pattern's tags, axes and
value predicates are read off the :class:`QueryPattern` object (for
XPath text, off the pattern the program's XPath compiler produced, so
the oracle checks optimizer, engines, storage, shards and server, not
the XPath parser).

For every element ``v`` and pattern node ``q``::

    here[q]  = embeddings of q's subtree with q bound to v
             = [v matches q] * prod over q's child edges (axis, c) of
                   sum of here_u[c]   over children u of v   (axis /)
                   sum of below_u[c]  over children u of v   (axis //)
    below[q] = here[q] + sum of below_u[q] over children u of v

and the answer is ``below[root pattern node]`` at the document root —
a pattern's root may bind anywhere, which is what the program's
patterns mean.
"""

from __future__ import annotations

import xml.etree.ElementTree as ElementTree
from typing import Callable

_COMPARE: dict[str, Callable] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "contains": lambda a, b: b in a,
}


def _holds(element, predicate) -> bool:
    """One value predicate: numeric when both sides are numbers,
    else string comparison (the data sets encode values that way)."""
    if predicate.kind == "text":
        actual = (element.text or "").strip()
    else:
        actual = element.get(predicate.name)
        if actual is None:
            return False
    compare = _COMPARE[predicate.op]
    try:
        return compare(float(actual), float(predicate.value))
    except ValueError:
        return compare(actual, predicate.value)


class Oracle:
    """One parsed document; :meth:`count` answers any pattern on it."""

    def __init__(self, xml_text: str) -> None:
        self.root = ElementTree.fromstring(xml_text)

    def count(self, pattern) -> int:
        """Number of result rows the program must return."""
        nodes = pattern.nodes
        edges = [[] for _ in nodes]  # parent -> [(child, is_child_axis)]
        for edge in pattern.edges:
            edges[edge.parent].append((edge.child,
                                       str(edge.axis) == "/"))
        # children before parents, so here[child] exists when needed
        order = list(reversed(list(pattern.walk_preorder())))
        size = len(nodes)

        def visit(element) -> tuple[list[int], list[int]]:
            below_kids = [0] * size  # sum of below_u over children u
            here_kids = [0] * size   # sum of here_u over children u
            for child in element:
                here_u, below_u = visit(child)
                for q in range(size):
                    here_kids[q] += here_u[q]
                    below_kids[q] += below_u[q]
            here = [0] * size
            for q in order:
                node = nodes[q]
                if node.tag != "*" and node.tag != element.tag:
                    continue
                if not all(_holds(element, p) for p in node.predicates):
                    continue
                ways = 1
                for child_q, child_axis in edges[q]:
                    ways *= (here_kids if child_axis
                             else below_kids)[child_q]
                    if not ways:
                        break
                here[q] = ways
            return here, [h + b for h, b in zip(here, below_kids)]

        return visit(self.root)[1][pattern.root]
