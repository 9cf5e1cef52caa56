"""Serving layer: plan caching and concurrent query execution.

:class:`QueryService` turns a single-shot
:class:`~repro.api.Database` into a small query server — batches run
on a thread pool, optimization is amortized across repeated patterns
through :class:`PlanCache`, and service-level metrics (latency
percentiles, cache hit rate, aggregate engine counters) are exposed
via :meth:`QueryService.snapshot` / :meth:`repro.api.Database.stats`.
"""

from repro.service.cache import PlanCache, PlanCacheStats, cache_key
from repro.service.service import QueryService

__all__ = [
    "PlanCache",
    "PlanCacheStats",
    "QueryService",
    "cache_key",
]
