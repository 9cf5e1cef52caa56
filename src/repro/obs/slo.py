"""Service-level objectives over the query stream.

An :class:`SLObjective` is declarative: "*target* fraction of queries
must be good", where *good* is defined by the objective's indicator —
end-to-end latency under a threshold, time-to-first-result under a
threshold, or simply not an error.  An :class:`SLOTracker` consumes
one event per query (:meth:`SLOTracker.observe_query`) and maintains,
per objective:

* **compliance** — the good/total ratio, against the target;
* **error-budget burn rate** — the classic SRE ratio
  ``(bad / total) / (1 - target)``: 1.0 means the service spends its
  error budget exactly as fast as the objective allows, above 1.0 the
  budget is burning down.  Reported both lifetime and over a bounded
  recent window (the early-warning signal — a long healthy history
  must not mask a current incident);
* **exemplars** — per latency bucket, the most recent traced query
  observed in that bucket: the very entry the query service keeps for
  a slow query (query, algorithm, seconds, rows, trace id), so an
  exemplar names its query.  The Prometheus *text* format cannot
  carry exemplars, so they are surfaced through the ``/slo`` JSON
  endpoint instead: from a slow bucket straight to a stitched trace
  of a query that landed in it.

The tracker is registry-agnostic; :meth:`SLOTracker.collect` sets the
gauge families (``repro_slo_target`` / ``repro_slo_compliance_ratio``
/ ``repro_slo_error_budget_burn`` / ``repro_slo_events_total`` /
``repro_slo_bad_total``) on whatever registry the serving layer owns,
and is wired as a pull-style collector by
:class:`~repro.service.service.QueryService`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.obs.registry import DEFAULT_BUCKETS

__all__ = ["DEFAULT_OBJECTIVES", "SLObjective", "SLOTracker"]

#: indicators an objective may evaluate.
INDICATORS = ("latency", "time_to_first", "error")

#: events the recent-window burn rate is computed over.
DEFAULT_WINDOW = 512


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective: *target* fraction of queries good.

    ``indicator`` picks the goodness predicate: ``"latency"`` and
    ``"time_to_first"`` compare the respective measured seconds
    against ``threshold_seconds``; ``"error"`` counts any failed query
    as bad (``threshold_seconds`` unused).  ``target`` is the required
    compliance ratio in ``[0, 1)`` — e.g. 0.99 grants a 1% error
    budget.
    """

    name: str
    indicator: str
    target: float
    threshold_seconds: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.indicator not in INDICATORS:
            raise ValueError(
                f"unknown SLO indicator {self.indicator!r}; "
                f"expected one of {INDICATORS}")
        if not 0.0 <= self.target < 1.0:
            raise ValueError(
                f"SLO target must be in [0, 1), got {self.target}")
        if self.indicator != "error" and self.threshold_seconds <= 0:
            raise ValueError(
                f"objective {self.name!r} needs a positive "
                f"threshold_seconds")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    def is_good(self, seconds: float,
                time_to_first: "float | None",
                error: bool) -> "bool | None":
        """Goodness of one query event, or ``None`` if not applicable
        (a query with no time-to-first measurement neither helps nor
        hurts a time-to-first objective)."""
        if self.indicator == "error":
            return not error
        if error:
            return False  # failed queries violate latency SLOs too
        if self.indicator == "latency":
            return seconds <= self.threshold_seconds
        if time_to_first is None:
            return None
        return time_to_first <= self.threshold_seconds


#: stock objectives for the query service: p99-style latency, fast
#: first results, and a three-nines success rate.
DEFAULT_OBJECTIVES = (
    SLObjective(name="query_latency_p99", indicator="latency",
                target=0.99, threshold_seconds=0.5,
                description="99% of queries complete within 500ms"),
    SLObjective(name="time_to_first_result", indicator="time_to_first",
                target=0.95, threshold_seconds=0.1,
                description="95% of streamed queries yield a first "
                            "row within 100ms"),
    SLObjective(name="query_errors", indicator="error", target=0.999,
                description="99.9% of queries succeed"),
)


class _ObjectiveState:
    __slots__ = ("events", "bad", "window")

    def __init__(self) -> None:
        self.events = 0
        self.bad = 0
        self.window: deque[bool] = deque(maxlen=DEFAULT_WINDOW)


class SLOTracker:
    """Evaluate a set of objectives over the live query stream."""

    def __init__(self,
                 objectives: "tuple[SLObjective, ...]" = DEFAULT_OBJECTIVES
                 ) -> None:
        if not objectives:
            raise ValueError("an SLO tracker needs at least one "
                             "objective")
        names = [objective.name for objective in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names in {names}")
        self.objectives = tuple(objectives)
        self._mutex = threading.Lock()
        self._states = {objective.name: _ObjectiveState()
                        for objective in objectives}
        #: bucket upper bound (or "+Inf") -> most recent exemplar
        self._exemplars: dict[str, dict] = {}

    # -- ingest -----------------------------------------------------------

    def observe_query(self, seconds: float,
                      time_to_first: "float | None" = None,
                      error: bool = False,
                      entry: "dict | None" = None) -> None:
        """Fold one finished query into every applicable objective.

        *entry* is the query's one record (``query``, ``algorithm``,
        ``seconds``, ``rows``, ``trace_id``); a successful query with a
        trace id becomes its latency bucket's exemplar.
        """
        with self._mutex:
            for objective in self.objectives:
                good = objective.is_good(seconds, time_to_first, error)
                if good is None:
                    continue
                state = self._states[objective.name]
                state.events += 1
                if not good:
                    state.bad += 1
                state.window.append(good)
            if entry is not None and entry["trace_id"] and not error:
                self._exemplars[self._bucket_of(seconds)] = entry

    def _bucket_of(self, seconds: float) -> str:
        for bound in DEFAULT_BUCKETS:
            if seconds <= bound:
                return repr(bound)
        return "+Inf"

    # -- report -----------------------------------------------------------

    @staticmethod
    def _burn(bad: int, events: int, budget: float) -> float:
        if events == 0:
            return 0.0
        return (bad / events) / budget

    def snapshot(self) -> dict:
        """JSON-able state of every objective (the ``/slo`` payload)."""
        with self._mutex:
            objectives = []
            for objective in self.objectives:
                state = self._states[objective.name]
                recent = list(state.window)
                recent_bad = sum(1 for good in recent if not good)
                compliance = (1.0 - state.bad / state.events
                              if state.events else 1.0)
                objectives.append({
                    "name": objective.name,
                    "description": objective.description,
                    "indicator": objective.indicator,
                    "target": objective.target,
                    "threshold_seconds": objective.threshold_seconds,
                    "events": state.events,
                    "bad": state.bad,
                    "compliance": compliance,
                    "met": compliance >= objective.target,
                    "error_budget": objective.error_budget,
                    "burn_rate": self._burn(state.bad, state.events,
                                            objective.error_budget),
                    "recent_events": len(recent),
                    "recent_burn_rate": self._burn(
                        recent_bad, len(recent),
                        objective.error_budget),
                })
            exemplars = [{"bucket_le": bucket, "value": entry["seconds"],
                          **entry}
                         for bucket, entry
                         in sorted(self._exemplars.items())]
        return {"objectives": objectives, "exemplars": exemplars}

    def collect(self, registry) -> None:
        """Set the SLO gauge families on *registry* (pull-style)."""
        target = registry.gauge(
            "repro_slo_target", "Required compliance ratio")
        compliance = registry.gauge(
            "repro_slo_compliance_ratio",
            "Observed good/total ratio per objective")
        burn = registry.gauge(
            "repro_slo_error_budget_burn",
            "Error-budget burn rate (1.0 = spending exactly the "
            "budget); windowed series carry window=\"recent\"")
        events = registry.gauge(
            "repro_slo_events_total",
            "Query events evaluated per objective")
        bad = registry.gauge(
            "repro_slo_bad_total",
            "Events that violated the objective")
        snapshot = self.snapshot()
        for entry in snapshot["objectives"]:
            name = entry["name"]
            target.set(entry["target"], objective=name)
            compliance.set(entry["compliance"], objective=name)
            burn.set(entry["burn_rate"], objective=name)
            burn.set(entry["recent_burn_rate"], objective=name,
                     window="recent")
            events.set(entry["events"], objective=name)
            bad.set(entry["bad"], objective=name)
