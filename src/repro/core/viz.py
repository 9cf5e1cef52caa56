"""Graphviz (dot) export for plans and search traces.

Two renderers:

* :func:`plan_to_dot` — a physical plan as an operator tree, annotated
  with estimated cardinalities/costs (what Fig. 2 sketches);
* :func:`trace_to_dot` — the status graph a DPP search walked,
  generation edges labelled with moves (what Figs. 3 and 4 draw).

The output is plain dot text; render with ``dot -Tsvg``.
"""

from __future__ import annotations

from repro.core.pattern import QueryPattern
from repro.core.plans import IndexScanPlan, PhysicalPlan, SortPlan
from repro.core.planspace import PlanSpaceRecorder


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def plan_to_dot(plan: PhysicalPlan,
                pattern: QueryPattern | None = None,
                title: str = "plan") -> str:
    """Render a plan tree as a dot digraph."""
    lines = [f'digraph "{_escape(title)}" {{',
             "  node [shape=box, fontname=monospace];",
             "  rankdir=BT;"]
    identifiers: dict[int, str] = {}

    def visit(node: PhysicalPlan) -> str:
        identifier = identifiers.get(id(node))
        if identifier is not None:
            return identifier
        identifier = f"n{len(identifiers)}"
        identifiers[id(node)] = identifier
        shape = ("ellipse" if isinstance(node, IndexScanPlan)
                 else "box")
        style = ', style=filled, fillcolor="#ffeeee"' \
            if isinstance(node, SortPlan) else ""
        label = (f"{node.label(pattern)}\\n"
                 f"card={node.estimated_cardinality:.0f} "
                 f"cost={node.estimated_cost:.0f}")
        lines.append(f'  {identifier} [label="{_escape(label)}"'
                     f", shape={shape}{style}];")
        for child in node.children():
            child_id = visit(child)
            lines.append(f"  {child_id} -> {identifier};")
        return identifier

    visit(plan)
    lines.append("}")
    return "\n".join(lines)


def trace_to_dot(trace: PlanSpaceRecorder, title: str = "search") -> str:
    """Render a recorded DPP search as a dot digraph.

    Statuses become nodes (doubled border when expanded, grey when
    pruned); generation and improvement events become edges labelled
    with the move that produced them.
    """
    lines = [f'digraph "{_escape(title)}" {{',
             "  node [shape=box, fontname=monospace];"]
    expanded = {event.status_id
                for event in trace.events_of_kind("expand")}
    pruned = {event.status_id for event in trace.events_of_kind("prune")}
    finals = {event.status_id for event in trace.events_of_kind("final")}

    seen: set[int] = set()
    for event in trace.events:
        if event.status_id in seen:
            continue
        seen.add(event.status_id)
        attributes = []
        if event.status_id in finals:
            attributes.append('fillcolor="#eeffee", style=filled')
        elif event.status_id in pruned:
            attributes.append('fillcolor="#eeeeee", style=filled')
        if event.status_id in expanded:
            attributes.append("peripheries=2")
        label = _escape(f"status{event.status_id}\\n{event.status}")
        extra = (", " + ", ".join(attributes)) if attributes else ""
        lines.append(f'  s{event.status_id} [label="{label}"{extra}];')

    previous_expansion = 0
    for event in trace.events:
        if event.kind == "expand":
            previous_expansion = event.status_id
        elif event.kind in ("generate", "improve", "final") \
                and event.status_id != previous_expansion:
            style = ' [style=dashed]' if event.kind == "improve" else ""
            lines.append(
                f"  s{previous_expansion} -> s{event.status_id}{style};")
    lines.append("}")
    return "\n".join(lines)
