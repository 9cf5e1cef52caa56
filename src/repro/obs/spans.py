"""Span trees: per-query tracing for the execution engines.

A :class:`Span` is one timed node of a query's trace — a pipeline
stage (parse, optimize, execute) or one physical operator.  Operator
spans additionally carry the operator's *private*
:class:`~repro.engine.metrics.ExecutionMetrics`, so each operator's
share of every cost-model counter is attributed exactly: when tracing
is enabled the executor hands every operator its own counters and
merges them back into the run totals afterwards, which keeps the
per-operator shares summing *exactly* to the run's
``ExecutionMetrics`` (asserted by ``tests/test_obs.py``).

Instrumentation is zero-cost when disabled: operators carry a
``_span`` slot that defaults to ``None`` and is checked once per
``run()``/``block()`` call — never per tuple — so the untraced hot
path is unchanged (see DESIGN.md, "Observability").

The span tree is the *only* per-operator record of a run: an operator
span also echoes the optimizer's estimates for its plan node, and the
derived reads built on the pair — the **Q-error** of the row and cost
estimates (:func:`q_error`), cumulative actual cost, the est/act
render line, the :meth:`Span.operator_record` a query-log record
keeps — live here, so ``explain --analyze``, the query log, ``/traces``
and a shard worker's reply all show the same object.

Span trees export as JSON (:meth:`Span.to_dict`) and as an indented
text tree (:meth:`Span.render`).  A :class:`Tracer` is a thread-safe
bounded ring of finished query traces.

Distributed tracing: a :class:`TraceContext` names one trace (trace
id, parent span id, sampling decision) and crosses process boundaries
as a plain dict.  Shard workers serialize their span subtrees with
:meth:`Span.to_dict`; the coordinator rebuilds them with
:meth:`Span.from_dict` — counters are preserved *exactly* (they ride
as ints), so stitched per-shard shares still sum to the merged run
totals — and :func:`assign_span_ids` stamps unique span ids with
well-formed parent links over the stitched tree.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Iterator

__all__ = ["FrozenMetrics", "Span", "TraceContext", "Tracer",
           "assign_span_ids", "q_error"]

#: counters exported per operator span (the cost-model counters plus
#: the sort diagnostics; page/buffer I/O stays run-level — the buffer
#: pool is shared, so per-operator attribution would be approximate).
SPAN_COUNTERS = ("index_items", "sort_count", "sorted_items",
                 "sort_units", "buffered_results", "stack_tuple_ops",
                 "output_tuples", "join_count")


def q_error(estimated: float, actual: float) -> float:
    """Symmetric estimate/actual ratio, both sides clamped to >= 1.

    Q-error (Moerkotte et al., "Preventing Bad Plans by Bounding the
    Impact of Cardinality Estimation Errors", VLDB 2009): 1 is a
    perfect estimate, and the factor by which it exceeds 1 bounds how
    far the optimizer's cost ranking can drift for that operator.  The
    clamp keeps empty results from dividing by zero.
    """
    estimated = max(float(estimated), 1.0)
    actual = max(float(actual), 1.0)
    return max(estimated, actual) / min(estimated, actual)


class TraceContext:
    """Identity of one distributed trace, propagated across processes.

    ``trace_id`` names the whole trace; ``parent_span_id`` is the
    coordinator-side span the receiver's subtree hangs under.
    Serializes to a plain dict — the shard pipe protocol and any
    future network front-end ship it as data, never as live objects.
    """

    __slots__ = ("trace_id", "parent_span_id")

    def __init__(self, trace_id: str, parent_span_id: str = "") -> None:
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id

    @classmethod
    def new(cls) -> "TraceContext":
        """Fresh 16-hex-digit trace id (random, collision-safe)."""
        return cls(trace_id=uuid.uuid4().hex[:16])

    def child(self, parent_span_id: str) -> "TraceContext":
        """The context a downstream worker runs under."""
        return TraceContext(self.trace_id, parent_span_id)

    def to_dict(self) -> dict[str, object]:
        return {"trace_id": self.trace_id,
                "parent_span_id": self.parent_span_id}

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        return cls(trace_id=str(payload.get("trace_id", "")),
                   parent_span_id=str(payload.get("parent_span_id", "")))

    def __repr__(self) -> str:
        return (f"TraceContext({self.trace_id!r}, "
                f"parent={self.parent_span_id!r})")


class FrozenMetrics:
    """Counter shares of a span rebuilt from its serialized form.

    Stands in for the live
    :class:`~repro.engine.metrics.ExecutionMetrics` a worker-side span
    carried: exposes the :data:`SPAN_COUNTERS` as attributes and the
    recorded ``simulated_cost()``, which is all :class:`Span`'s
    counter and cost reads need.  Values are frozen at serialization
    time — exact ints for the counters, so stitched shares still sum
    precisely to the merged run totals.
    """

    __slots__ = SPAN_COUNTERS + ("_simulated_cost",)

    def __init__(self, counters: dict[str, float],
                 simulated_cost: float) -> None:
        for name in SPAN_COUNTERS:
            setattr(self, name, counters.get(name, 0))
        self._simulated_cost = simulated_cost

    def simulated_cost(self) -> float:
        return self._simulated_cost


class Span:
    """One timed node of a query trace.

    ``seconds`` is *inclusive* (children run within their parent);
    :meth:`exclusive_seconds` subtracts the children.  For operator
    spans, ``detail`` is the plan node's label
    (:meth:`~repro.core.plans.PhysicalPlan.label`), ``metrics`` holds
    the operator's private counters and ``estimated_cardinality`` /
    ``estimated_cost`` echo the plan annotations the optimizer
    derived, so estimate-vs-actual drift is read off the span itself
    (:meth:`rows_q_error`, :meth:`cost_q_error`).  A stage span (a
    shard scatter, a merge) carries neither.
    """

    __slots__ = ("name", "detail", "seconds", "output_rows",
                 "estimated_cardinality", "estimated_cost", "metrics",
                 "children", "trace_id", "span_id", "parent_span_id")

    def __init__(self, name: str, detail: str = "",
                 estimated_cardinality: float | None = None,
                 estimated_cost: float | None = None,
                 metrics: object | None = None) -> None:
        self.name = name
        self.detail = detail
        self.seconds = 0.0
        self.output_rows = 0
        self.estimated_cardinality = estimated_cardinality
        self.estimated_cost = estimated_cost
        self.metrics = metrics
        self.children: list[Span] = []
        #: distributed-trace identity, empty until the span tree is
        #: stamped with :func:`assign_span_ids` (never on the untraced
        #: hot path — ids are assigned once per finished trace).
        self.trace_id = ""
        self.span_id = ""
        self.parent_span_id = ""

    # -- instrumentation hooks (hot path; called by the engines) ---------

    def wrap(self, stream: Iterator) -> Iterator:
        """Time a tuple stream: accumulate per-``next`` wall time and
        count rows.  Used by the iterator engine, where an operator's
        work is interleaved with its consumers'."""
        clock = time.perf_counter
        while True:
            started = clock()
            try:
                item = next(stream)
            except StopIteration:
                self.seconds += clock() - started
                return
            self.seconds += clock() - started
            self.output_rows += 1
            yield item

    # -- structure -------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def walk_post_order(self) -> Iterator["Span"]:
        """All descendants, children first in plan order, then this
        span: the order an untraced run's operators finish in, hence
        the one order to sum counter shares in — float shares (the
        sort terms) summed in it give the untraced total bit for bit,
        which no other order promises."""
        for child in self.children:
            yield from child.walk_post_order()
        yield self

    def exclusive_seconds(self) -> float:
        """Time spent in this span minus its children (>= 0)."""
        return max(0.0, self.seconds
                   - sum(child.seconds for child in self.children))

    def counters(self) -> dict[str, float]:
        """This span's share of the cost-model counters ({} if none)."""
        if self.metrics is None:
            return {}
        return {name: getattr(self.metrics, name)
                for name in SPAN_COUNTERS}

    # -- estimate vs. actual ---------------------------------------------

    def simulated_cost(self) -> float:
        """This span's own share of the run's simulated cost."""
        if self.metrics is None:
            return 0.0
        return self.metrics.simulated_cost()

    def actual_cost(self) -> float:
        """Simulated cost of the whole subtree — cumulative, like the
        optimizer's ``estimated_cost`` it is compared with."""
        return self.simulated_cost() + sum(child.actual_cost()
                                           for child in self.children)

    def rows_q_error(self) -> float:
        return q_error(self.estimated_cardinality or 0.0,
                       self.output_rows)

    def cost_q_error(self) -> float:
        return q_error(self.estimated_cost or 0.0, self.actual_cost())

    def operator_record(self) -> dict[str, object]:
        """This operator's entry in a query-log record's ``operators``
        list; the key names are the on-disk format ``calibrate`` and
        ``audit`` read back."""
        return {
            "operator": self.detail or self.name,
            "estimated_rows": self.estimated_cardinality,
            "actual_rows": self.output_rows,
            "estimated_cost": self.estimated_cost,
            "actual_cost": self.actual_cost(),
            "seconds": self.seconds,
            "self_seconds": self.exclusive_seconds(),
            "simulated_cost": self.simulated_cost(),
            "counters": self.counters(),
        }

    # -- export ----------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-able rendering of the subtree."""
        payload: dict[str, object] = {
            "name": self.name,
            "detail": self.detail,
            "seconds": self.seconds,
            "exclusive_seconds": self.exclusive_seconds(),
            "output_rows": self.output_rows,
        }
        if self.trace_id:
            payload["trace_id"] = self.trace_id
        if self.span_id:
            payload["span_id"] = self.span_id
        if self.parent_span_id:
            payload["parent_span_id"] = self.parent_span_id
        if self.estimated_cardinality is not None:
            payload["estimated_cardinality"] = self.estimated_cardinality
            payload["rows_q_error"] = self.rows_q_error()
        if self.estimated_cost is not None:
            payload["estimated_cost"] = self.estimated_cost
            payload["actual_cost"] = self.actual_cost()
            payload["cost_q_error"] = self.cost_q_error()
        if self.metrics is not None:
            payload["counters"] = self.counters()
            payload["simulated_cost"] = self.simulated_cost()
        payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Rebuild a span subtree from its :meth:`to_dict` form.

        The wire format for cross-process span shipping (shard workers
        serialize, the coordinator stitches): live engine metrics come
        back as a :class:`FrozenMetrics` carrying the exact counter
        shares and the recorded simulated cost, so
        estimate-vs-actual analysis and differential counter checks
        work identically on stitched trees.
        """
        span = cls(str(payload.get("name", "")),
                   detail=str(payload.get("detail", "")),
                   estimated_cardinality=payload.get(
                       "estimated_cardinality"),
                   estimated_cost=payload.get("estimated_cost"))
        span.seconds = float(payload.get("seconds", 0.0))
        span.output_rows = int(payload.get("output_rows", 0))
        span.trace_id = str(payload.get("trace_id", ""))
        span.span_id = str(payload.get("span_id", ""))
        span.parent_span_id = str(payload.get("parent_span_id", ""))
        counters = payload.get("counters")
        if isinstance(counters, dict):
            span.metrics = FrozenMetrics(
                counters, float(payload.get("simulated_cost", 0.0)))
        span.children = [cls.from_dict(child)
                         for child in payload.get("children", ())]
        return span

    def render(self, indent: int = 0) -> str:
        """Indented text tree of the subtree: an operator's line is
        ``label rows=est/act (q=Q-error) cost=est/act (q=Q-error)
        time=self``, a stage's its label and inclusive time."""
        lines: list[str] = []
        self._render(indent, lines)
        return "\n".join(lines)

    def _render(self, depth: int, lines: list[str]) -> None:
        line = f"{'  ' * depth}{self.detail or self.name}"
        if self.estimated_cardinality is None:
            line += f" {self.seconds * 1e3:.2f}ms"
        else:
            line += (f" rows={self.estimated_cardinality:.1f}"
                     f"/{self.output_rows}"
                     f" (q={self.rows_q_error():.2f})"
                     f" cost={self.estimated_cost:.1f}"
                     f"/{self.actual_cost():.1f}"
                     f" (q={self.cost_q_error():.2f})"
                     f" time={self.exclusive_seconds() * 1e3:.2f}ms")
        lines.append(line)
        for child in self.children:
            child._render(depth + 1, lines)

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, rows={self.output_rows}, "
                f"seconds={self.seconds:.6f}, "
                f"children={len(self.children)})")


def assign_span_ids(root: Span, trace_id: str,
                    parent_span_id: str = "", prefix: str = "") -> None:
    """Stamp a finished span tree with trace identity.

    Pre-order numbering under *prefix* gives every span a unique id
    (``<prefix><n>``) and each child a ``parent_span_id`` equal to its
    parent's ``span_id`` — well-formed parentage by construction.
    Worker subtrees are stamped with a per-shard prefix before
    shipping, coordinator spans with their own, so ids stay unique
    across the stitched trace.  Idempotent: re-stamping overwrites.
    """
    counter = 0

    def stamp(span: Span, parent_id: str) -> None:
        nonlocal counter
        span.trace_id = trace_id
        span.span_id = f"{prefix}{counter:x}"
        span.parent_span_id = parent_id
        counter += 1
        for child in span.children:
            stamp(child, span.span_id)

    stamp(root, parent_span_id)


class Tracer:
    """Thread-safe bounded ring of finished query span trees.

    One tracer per query target; every traced run (an
    ``explain(analyze=True)``, a sampled or ``X-Trace-Id`` request)
    has its root span recorded here by ``stream_execute``'s finish
    hook, oldest dropped first once *capacity* traces are held.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be at least 1")
        self.capacity = capacity
        self._mutex = threading.Lock()
        self._traces: list[Span] = []
        self._recorded = 0

    def record(self, span: Span) -> None:
        """Add a finished trace (drops the oldest beyond capacity)."""
        with self._mutex:
            self._recorded += 1
            self._traces.append(span)
            if len(self._traces) > self.capacity:
                del self._traces[:len(self._traces) - self.capacity]

    def traces(self) -> list[Span]:
        """The retained traces, oldest first (snapshot copy)."""
        with self._mutex:
            return list(self._traces)

    @property
    def recorded(self) -> int:
        """Total traces ever recorded (including dropped ones)."""
        with self._mutex:
            return self._recorded

    def clear(self) -> None:
        with self._mutex:
            self._traces.clear()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._traces)
