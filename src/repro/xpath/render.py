"""Render query patterns back to XPath — the compiler's inverse.

Useful for logging, plan explanation and interop: any
:class:`~repro.core.pattern.QueryPattern` can be shown as the XPath
expression that would compile back to it.  The renderer picks a
*spine* — the root-to-result path (the ``order_by`` node when the
pattern has one, otherwise the deepest leaf) — and folds every other
branch into a nested path predicate, exactly mirroring how
:func:`repro.xpath.compile_xpath` lowers predicates into branches.

``compile_xpath(pattern_to_xpath(p), order_by_result=p.order_by is not
None)`` yields a pattern isomorphic to ``p`` (node ids are renumbered
by traversal order; compare with
:func:`repro.core.pattern.canonical_signature`).
"""

from __future__ import annotations

from repro.errors import XPathSyntaxError
from repro.core.pattern import (Axis, PatternNode, Predicate,
                                QueryPattern)


def _quote(value: str) -> str:
    """Pick a quote character the value does not contain."""
    if "'" not in value:
        return f"'{value}'"
    if '"' not in value:
        return f'"{value}"'
    raise XPathSyntaxError(
        "cannot render a literal containing both quote characters")


def _render_predicate(predicate: Predicate) -> str:
    subject = ("text()" if predicate.kind == "text"
               else f"@{predicate.name}")
    if predicate.op == "contains":
        return f"contains({subject}, {_quote(predicate.value)})"
    return f"{subject} {predicate.op} {_quote(predicate.value)}"


def _axis_token(axis: Axis, leading: bool) -> str:
    if axis is Axis.DESCENDANT:
        return ".//" if leading else "//"
    return "" if leading else "/"


def pattern_to_xpath(pattern: QueryPattern) -> str:
    """Render *pattern* as an XPath string."""
    spine = _spine(pattern)
    parts: list[str] = []
    for position, node_id in enumerate(spine):
        if position == 0:
            edge_axis = Axis.DESCENDANT  # absolute paths start with //
        else:
            edge_axis = pattern.edge_between(
                spine[position - 1], node_id).axis
        token = "//" if edge_axis is Axis.DESCENDANT else "/"
        parts.append(token + _render_step(pattern, node_id,
                                          exclude=set(spine)))
    return "".join(parts)


def _render_step(pattern: QueryPattern, node_id: int,
                 exclude: set[int]) -> str:
    node: PatternNode = pattern.node(node_id)
    rendered = node.tag
    for predicate in node.predicates:
        rendered += f"[{_render_predicate(predicate)}]"
    for edge in pattern.child_edges(node_id):
        if edge.child in exclude:
            continue
        rendered += f"[{_render_branch(pattern, edge.child, edge.axis)}]"
    return rendered


def _render_branch(pattern: QueryPattern, node_id: int,
                   axis: Axis) -> str:
    """A non-spine branch as a relative path predicate."""
    rendered = _axis_token(axis, leading=True)
    rendered += _render_step(pattern, node_id, exclude=set())
    return rendered


def _spine(pattern: QueryPattern) -> list[int]:
    """Root-to-result node ids (order_by, else the deepest leaf)."""
    target = pattern.order_by
    if target is None:
        depths = {pattern.root: 0}
        deepest = pattern.root
        for node_id in pattern.walk_preorder():
            for child in pattern.children(node_id):
                depths[child] = depths[node_id] + 1
                if depths[child] > depths[deepest]:
                    deepest = child
        target = deepest
    path = [target]
    edge = pattern.parent_edge(target)
    while edge is not None:
        path.append(edge.parent)
        edge = pattern.parent_edge(edge.parent)
    path.reverse()
    return path
