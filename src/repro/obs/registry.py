"""Metrics registry: named counters, gauges and histograms.

A :class:`MetricsRegistry` holds metric *families* keyed by name; each
family holds one series per label combination.  Everything is guarded
by one lock — updates are a dict probe plus a float add, far cheaper
than the query work they annotate.

Exports:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` headers, ``_bucket`` /
  ``_sum`` / ``_count`` series for histograms), scrape-parseable;
* :meth:`MetricsRegistry.to_dict` — the same data as JSON-able dicts.

*Collectors* bridge pull-style sources (buffer-pool hit rate, plan
cache occupancy): callbacks registered with
:meth:`MetricsRegistry.register_collector` run before every export and
set gauges from the live objects.

There is no process-wide registry: the serving layer creates one per
:class:`~repro.service.service.QueryService`, so concurrent databases
in one process (and tests) never share counters.

:class:`SampleReservoir` implements Vitter's Algorithm R — a uniform
sample over an unbounded stream — and backs the query service's
latency percentiles: unlike drop-oldest truncation, every observation
ever made has equal probability of being in the sample, so percentiles
are unbiased under sustained load.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Sequence

__all__ = ["BucketRecorder", "Counter", "Gauge", "Histogram",
           "MetricsRegistry", "SampleReservoir", "percentile"]

#: default histogram buckets: latency-flavoured, in seconds.
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: tuple[tuple[str, str], ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(value: str) -> str:
    # HELP text escapes only backslash and newline (no quotes).
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    # Prometheus accepts any Go-parseable float; integral values are
    # rendered without an exponent for readability.
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Base class: one metric family (name, help, typed series)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 lock: threading.Lock) -> None:
        self.name = name
        self.help = help_text
        self._lock = lock
        self._series: dict[tuple[tuple[str, str], ...], object] = {}

    def _lines(self) -> list[str]:
        raise NotImplementedError

    def _data(self) -> dict[str, object]:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def _lines(self) -> list[str]:
        return [f"{self.name}{_render_labels(key)} {_format_value(value)}"
                for key, value in sorted(self._series.items())]

    def _data(self) -> dict[str, object]:
        return {"series": [{"labels": dict(key), "value": value}
                           for key, value in sorted(self._series.items())]}


class Gauge(_Metric):
    """A value that can go up and down (set absolutely)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    _lines = Counter._lines
    _data = Counter._data


class _HistogramSeries:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, buckets: int) -> None:
        self.bucket_counts = [0] * buckets
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str, lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text, lock)
        ordered = tuple(sorted(float(bound) for bound in buckets))
        if not ordered:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = ordered

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets))
                self._series[key] = series
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    series.bucket_counts[index] += 1
            series.total += value
            series.count += 1

    def set_series(self, bucket_counts: Sequence[int], total: float,
                   count: int, **labels: str) -> None:
        """Overwrite one series from externally accumulated buckets.

        The mirror path for pull-style sources that keep their own
        cumulative bucket counts (e.g. the WAL's fsync-latency
        recorder, which lives below the registry layer): a collector
        copies the source's buckets verbatim on every export instead
        of replaying observations.  *bucket_counts* must use this
        histogram's bucket bounds and cumulative (Prometheus)
        semantics.
        """
        if len(bucket_counts) != len(self.buckets):
            raise ValueError(
                f"expected {len(self.buckets)} bucket counts, got "
                f"{len(bucket_counts)}")
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets))
                self._series[key] = series
            series.bucket_counts = [int(c) for c in bucket_counts]
            series.total = float(total)
            series.count = int(count)

    def count(self, **labels: str) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series is not None else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.total if series is not None else 0.0

    def quantile(self, q: float, **labels: str) -> float:
        """Estimate the *q*-quantile from the bucket counts.

        Same estimator as PromQL's ``histogram_quantile``: find the
        bucket the target rank falls into and interpolate linearly
        inside it (the first bucket's lower edge is 0 — these are
        latency-flavoured histograms).  Observations beyond the last
        finite bucket cannot be located, so ranks landing in the
        ``+Inf`` bucket report the highest finite bound.  This makes
        CLI percentiles computable from scraped data alone; accuracy
        is bounded by bucket resolution, unlike the exact in-process
        :class:`SampleReservoir`.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or series.count == 0:
                return 0.0
            counts = list(series.bucket_counts)
            total = series.count
        rank = max(q * total, 1.0)
        lower = 0.0
        previous_cumulative = 0
        for bound, cumulative in zip(self.buckets, counts):
            if cumulative >= rank:
                width = cumulative - previous_cumulative
                if width <= 0:
                    return bound
                fraction = (rank - previous_cumulative) / width
                return lower + (bound - lower) * fraction
            if cumulative > previous_cumulative:
                previous_cumulative = cumulative
            lower = bound
        return self.buckets[-1]

    def _lines(self) -> list[str]:
        lines: list[str] = []
        for key, series in sorted(self._series.items()):
            for bound, count in zip(self.buckets, series.bucket_counts):
                le = (("le", _format_value(bound)),)
                lines.append(f"{self.name}_bucket"
                             f"{_render_labels(key, le)} {count}")
            lines.append(f"{self.name}_bucket"
                         f"{_render_labels(key, (('le', '+Inf'),))} "
                         f"{series.count}")
            lines.append(f"{self.name}_sum{_render_labels(key)} "
                         f"{_format_value(series.total)}")
            lines.append(f"{self.name}_count{_render_labels(key)} "
                         f"{series.count}")
        return lines

    def _data(self) -> dict[str, object]:
        return {
            "buckets": list(self.buckets),
            "series": [{
                "labels": dict(key),
                "bucket_counts": list(series.bucket_counts),
                "sum": series.total,
                "count": series.count,
            } for key, series in sorted(self._series.items())],
        }


class BucketRecorder:
    """Cumulative-bucket accumulator for code below the registry layer.

    Storage-layer objects (WAL, transaction manager) predate and
    outlive any particular :class:`MetricsRegistry`, so they record
    into one of these; a registry collector mirrors it into a real
    :class:`Histogram` with :meth:`Histogram.set_series` on every
    export (:meth:`mirror_into`).  Not thread-safe on its own — owners
    guard it with the lock that already serializes the recorded
    operation (the WAL's write lock, the manager's commit lock).
    """

    __slots__ = ("buckets", "bucket_counts", "total", "count")

    def __init__(self,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(float(bound) for bound in buckets))
        if not self.buckets:
            raise ValueError("bucket recorder needs at least one bucket")
        self.bucket_counts = [0] * len(self.buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
        self.total += float(value)
        self.count += 1

    def mirror_into(self, histogram: Histogram, **labels: str) -> None:
        """Copy the accumulated series into *histogram* verbatim."""
        histogram.set_series(self.bucket_counts, self.total,
                             self.count, **labels)

    def snapshot(self) -> dict[str, object]:
        return {"buckets": list(self.buckets),
                "bucket_counts": list(self.bucket_counts),
                "sum": self.total, "count": self.count}


class MetricsRegistry:
    """Named metric families plus pull-style collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[[], None]] = []

    # -- registration ----------------------------------------------------

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(name, help_text, Counter)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(name, help_text, Gauge)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Histogram(name, help_text, self._lock, buckets)
                self._metrics[name] = metric
            elif not isinstance(metric, Histogram):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}")
            return metric

    def _get_or_create(self, name: str, help_text: str,
                       cls: type[_Metric]) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, self._lock)
                self._metrics[name] = metric
            elif type(metric) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}")
            return metric

    def register_collector(self, collect: Callable[[], None]) -> None:
        """Add a callback run before every export (sets gauges from
        live objects such as the buffer pool)."""
        with self._lock:
            self._collectors.append(collect)

    def collect(self) -> None:
        """Run all collectors (collectors update metrics themselves)."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()

    # -- export ----------------------------------------------------------

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (runs collectors)."""
        self.collect()
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.help:
                    lines.append(
                        f"# HELP {name} {_escape_help(metric.help)}")
                lines.append(f"# TYPE {name} {metric.kind}")
                lines.extend(metric._lines())
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict[str, object]:
        """JSON-able dump of every family (runs collectors)."""
        self.collect()
        with self._lock:
            return {name: {"type": metric.kind, "help": metric.help,
                           **metric._data()}
                    for name, metric in sorted(self._metrics.items())}


class SampleReservoir:
    """Uniform sample of an unbounded stream (Vitter's Algorithm R).

    After ``n`` observations every observation has probability
    ``capacity / n`` of being in the sample — no recency bias, unlike
    the drop-oldest truncation this replaces.  Deterministic for a
    given seed; not thread-safe on its own (the query service guards
    it with the same mutex as its other counters).
    """

    def __init__(self, capacity: int = 8192, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be at least 1")
        self.capacity = capacity
        self._samples: list[float] = []
        self._count = 0
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self._count += 1
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = self._rng.randrange(self._count)
        if slot < self.capacity:
            self._samples[slot] = value

    def values(self) -> list[float]:
        """The current sample (copy, unordered)."""
        return list(self._samples)

    @property
    def count(self) -> int:
        """Observations ever offered (>= len(samples))."""
        return self._count

    def __len__(self) -> int:
        return len(self._samples)

    def clear(self) -> None:
        self._samples.clear()
        self._count = 0


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *samples* (0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, round(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]
