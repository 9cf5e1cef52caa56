"""In-memory spans recorded by the benchmark around each layer call.

The benchmark opens a span around every call it makes into a layer's
public function (client-side for HTTP); spans inside ``src/`` are a
later issue.  Spans stay in memory and are written when the workload
ends.  A span's *self time* is its duration minus the part of that
interval its child spans cover, so the self times of one operation's
spans sum to the operation's duration exactly — that sum, per layer,
is the budget line.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from perf.bench import Speedometer, clock


class Tracer:
    """Span store; one *op* id per operation ties its spans together."""

    def __init__(self, speed: Speedometer) -> None:
        self.speed = speed
        # (name, start, end, parent index or -1, op id)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ops = 0

    def new_op(self) -> int:
        self._ops += 1
        return self._ops

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, op])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = clock()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, op: int,
            parent: int = -1) -> int:
        """Record a span whose bounds were timed elsewhere (wire
        timestamps, a stage split the program reports)."""
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1

    # -- analysis ----------------------------------------------------------

    def self_ms(self) -> dict[str, list[float]]:
        """Normalised self time of every span, grouped by span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        by_name: dict[str, list[float]] = {}
        for (name, start, end, _, _), inside in zip(self.spans, covered):
            scale = self.speed.factor(start, end) * 1e3
            by_name.setdefault(name, []).append(
                (end - start - inside) * scale)
        return by_name

    def budget(self, root: str) -> dict[str, float]:
        """Mean self time per operation of each span name, the *root*
        span's own self time being the residual no layer accounts for.

        The values sum to the mean duration of the root spans.
        """
        self_ms = self.self_ms()
        ops = len(self_ms.get(root, ())) or 1
        return {name: sum(values) / ops
                for name, values in self_ms.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["name", "start", "end", "parent",
                                   "op"],
                       "spans": self.spans}, handle)


def budget_line(workload: str, root: str, budget: dict[str, float],
                latency_p50_ms: float) -> str:
    """``budget <workload>: layer a + layer b + residual = mean op``."""
    total = sum(budget.values())
    residual = budget.get(root, 0.0)
    layers = " + ".join(f"{name} {value:.3f}"
                        for name, value in sorted(budget.items())
                        if name != root)
    share = residual / total if total else 0.0
    return (f"budget {workload}: {layers} + residual {residual:.3f} "
            f"= {total:.3f} ms mean per op "
            f"(residual {share:.1%}; latency_p50_ms {latency_p50_ms:.3f})")
