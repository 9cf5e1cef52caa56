"""Shared execution context: storage handles + metrics.

A context created by the API layer is *shared* state: the tag index
and document it references are used by every execution against the
database.  Joins read postings from the index; a value predicate reads
the element's text or attributes from the document, which every
context carries.  Metrics, by contrast, are *per-execution* state: two
plans running at the same time (the concurrent serving path,
:meth:`repro.api.Database.query_many`) must never write into the same
counters.  :meth:`EngineContext.for_run` hands each execution its own
run-scoped context — same storage handles, fresh
:class:`~repro.engine.metrics.ExecutionMetrics` — and the caller
merges the run's counters into aggregate totals explicitly.
"""

from __future__ import annotations

from repro.core.cost import CostFactors
from repro.document.document import XmlDocument
from repro.engine.metrics import ExecutionMetrics
from repro.storage.tagindex import TagIndex


class EngineContext:
    """Everything an operator tree needs to run."""

    def __init__(self, tag_index: TagIndex, document: XmlDocument,
                 factors: CostFactors | None = None) -> None:
        self.tag_index = tag_index
        self.document = document
        self.factors = factors or CostFactors()
        self.metrics = ExecutionMetrics(factors=self.factors)

    def for_run(self) -> "EngineContext":
        """A run-scoped context: shared storage, private metrics.

        Operators capture ``context.metrics`` at build time, so every
        execution must build its operator tree against its own run
        context — otherwise concurrent runs cross-pollute counters.
        """
        return EngineContext(self.tag_index, self.document,
                             factors=self.factors)
