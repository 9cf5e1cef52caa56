"""Plan cache: amortize optimization across repeated queries.

The paper's headline result is that DPP finds the DP optimum at a
fraction of DP's optimization cost; a serving system amortizes that
cost further by optimizing each distinct pattern *once*.  The cache is
keyed (:func:`cache_key`) by the **canonical pattern identity**
(:func:`repro.core.pattern.canonical_signature` — an id- and order-
independent encoding of tags, predicates, axes, tree shape and the
result-order node) plus the algorithm, its options, and the
database's statistics epoch, so a cached plan is reused only while the
statistics it was costed with are still live.  This module holds the
key and the cache and nothing else: the identity lives with the
pattern, the plan rewrite with the plan classes.

Because the canonical key identifies patterns up to isomorphism, a hit
may come from a pattern whose nodes are numbered differently (XPath
compilation numbers nodes by traversal order).  The cache then remaps
the stored plan (:func:`repro.core.plans.remap_plan`) through the
:func:`~repro.core.pattern.pattern_isomorphism` before handing it out,
so the plan's node ids always match the requesting pattern.

Concurrency: lookups are **single-flight**.  The first thread to miss
on a key optimizes; threads that ask for the same key while that
optimization is in flight wait for it and share the result (counted as
hits — no optimizer ran for them).  Eviction is LRU with a fixed
capacity.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.core.optimizer import OptimizationResult
from repro.core.pattern import (QueryPattern, canonical_signature,
                                pattern_isomorphism)
from repro.core.plans import remap_plan
from repro.errors import PlanError


def cache_key(pattern: QueryPattern, algorithm: str,
              options: dict[str, object], epoch: int) -> tuple:
    """The full cache key for one optimization request."""
    return (canonical_signature(pattern), algorithm,
            tuple(sorted(options.items())), epoch)


# -- the cache ----------------------------------------------------------------

@dataclass
class PlanCacheStats:
    """Observable counters for one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class _Entry:
    __slots__ = ("pattern", "result")

    def __init__(self, pattern: QueryPattern,
                 result: OptimizationResult) -> None:
        self.pattern = pattern
        self.result = result


@dataclass
class _InFlight:
    """One optimization being computed; waiters block on the event."""

    done: threading.Event = field(default_factory=threading.Event)
    entry: _Entry | None = None
    error: BaseException | None = None


class PlanCache:
    """LRU plan cache with single-flight misses."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise PlanError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._mutex = threading.Lock()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._inflight: dict[tuple, _InFlight] = {}

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def get_or_compute(
            self, key: Hashable, pattern: QueryPattern,
            compute: Callable[[], OptimizationResult],
    ) -> OptimizationResult:
        """Return the cached plan for *key*, optimizing at most once.

        *compute* runs outside the cache lock; concurrent requests for
        the same key wait for the winner's result instead of
        re-optimizing.
        """
        while True:
            with self._mutex:
                entry = self._entries.get(key)
                if entry is not None:
                    self.stats.hits += 1
                    self._entries.move_to_end(key)
                    return self._adapt(entry, pattern)
                flight = self._inflight.get(key)
                if flight is None:
                    self.stats.misses += 1
                    flight = _InFlight()
                    self._inflight[key] = flight
                    break  # we compute
            # someone else is computing this key: wait and share
            flight.done.wait()
            with self._mutex:
                if flight.error is not None:
                    raise flight.error
                if flight.entry is not None:
                    self.stats.hits += 1
                    return self._adapt(flight.entry, pattern)
            # winner's entry was withdrawn (e.g. invalidation): retry

        try:
            result = compute()
        except BaseException as exc:
            with self._mutex:
                flight.error = exc
                self._inflight.pop(key, None)
                flight.done.set()
            raise
        entry = _Entry(pattern, result)
        with self._mutex:
            flight.entry = entry
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            self._inflight.pop(key, None)
            flight.done.set()
        return result

    def _adapt(self, entry: _Entry,
               pattern: QueryPattern) -> OptimizationResult:
        """Express a cached result in *pattern*'s node ids."""
        cached = entry.result
        if entry.pattern is pattern or (
                entry.pattern.nodes == pattern.nodes
                and entry.pattern.edges == pattern.edges
                and entry.pattern.order_by == pattern.order_by):
            plan = cached.plan
        else:
            mapping = pattern_isomorphism(entry.pattern, pattern)
            plan = remap_plan(cached.plan, mapping)
        return OptimizationResult(pattern=pattern, plan=plan,
                                  estimated_cost=cached.estimated_cost,
                                  report=cached.report)

    def invalidate(self) -> int:
        """Drop every cached plan (document reload / new statistics).

        Returns the number of entries dropped.
        """
        with self._mutex:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += 1
            return dropped
