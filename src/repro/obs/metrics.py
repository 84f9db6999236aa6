"""Metrics registry: counters, gauges, histograms, time series.

The quantities the paper's evaluation turns on — per-kernel flops
(Figs. 6b/6c/10), per-region invocation counts (Table I), rank
distributions before/after recompression (Fig. 1), memory pool hit rates
and high-water marks (Fig. 8, Section VII-B), executor queue depths and
worker occupancy (Fig. 11) — are all either monotone totals, level
samples, or value distributions.  The registry models exactly those
three shapes plus a timestamped series for timelines:

* :class:`Counter` — monotone float total plus an increment count;
* :class:`Gauge` — last value with min/max watermarks;
* :class:`Histogram` — full value distribution (kept exact: the scales
  here are thousands of observations, so raw retention is cheaper than
  committing to bucket bounds up front);
* :class:`Series` — ``(t, value)`` samples against the registry clock,
  for memory/queue-depth timelines.

Metrics are identified by name plus optional labels, Prometheus-style::

    registry.counter("kernel_flops", kernel="(6)-GEMM").inc(flops)

Everything is thread-safe: registration takes the registry lock, updates
take a per-metric lock.
"""

from __future__ import annotations

import threading
import time

__all__ = ["Counter", "Gauge", "Histogram", "Series", "MetricsRegistry"]

#: Metric key: (name, ((label, value), ...)) with labels sorted.
_Key = tuple


def _key(name: str, labels: dict) -> _Key:
    return (name, tuple(sorted(labels.items())))


class _Metric:
    """Shared identity/locking base for all metric types."""

    kind = "metric"

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        # Canonical (sorted) label order: exports and compare diffs must
        # not depend on which call site registered the metric first.
        self.labels = dict(sorted(labels.items()))
        self._lock = threading.Lock()


class Counter(_Metric):
    """Monotone total; also counts how many increments arrived."""

    kind = "counter"

    def __init__(self, name: str, labels: dict) -> None:
        super().__init__(name, labels)
        self.value = 0.0
        self.increments = 0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the total."""
        with self._lock:
            self.value += amount
            self.increments += 1

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "labels": self.labels,
            "value": self.value,
            "increments": self.increments,
        }


class Gauge(_Metric):
    """Last-written level with min/max watermarks."""

    kind = "gauge"

    def __init__(self, name: str, labels: dict) -> None:
        super().__init__(name, labels)
        self.value = 0.0
        self.max = float("-inf")
        self.min = float("inf")
        self._written = False

    def set(self, value: float) -> None:
        """Record a new level."""
        value = float(value)
        with self._lock:
            self.value = value
            self.max = max(self.max, value)
            self.min = min(self.min, value)
            self._written = True

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "labels": self.labels,
            "value": self.value,
            "max": self.max if self._written else None,
            "min": self.min if self._written else None,
        }


class Histogram(_Metric):
    """Exact value distribution (raw observations retained)."""

    kind = "histogram"

    def __init__(self, name: str, labels: dict) -> None:
        super().__init__(name, labels)
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return float(sum(self.values))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) by nearest-rank; 0 if empty."""
        with self._lock:
            if not self.values:
                return 0.0
            ordered = sorted(self.values)
        idx = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[idx]

    def value_counts(self) -> dict[float, int]:
        """``{value: occurrences}`` — the exact spectrum (rank histograms)."""
        counts: dict[float, int] = {}
        with self._lock:
            for v in self.values:
                counts[v] = counts.get(v, 0) + 1
        return dict(sorted(counts.items()))

    def bucket_counts(self, bounds: list[float]) -> list[int]:
        """Cumulative counts per upper bound (Prometheus ``le`` semantics)."""
        with self._lock:
            vals = list(self.values)
        return [sum(1 for v in vals if v <= b) for b in bounds]

    def snapshot(self) -> dict:
        with self._lock:
            vals = list(self.values)
        if not vals:
            return {
                "name": self.name,
                "labels": self.labels,
                "count": 0,
                "sum": 0.0,
            }
        ordered = sorted(vals)

        def pct(q: float) -> float:
            return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]

        counts: dict[str, int] = {}
        for v in vals:
            key = f"{int(v)}" if float(v).is_integer() else f"{v:g}"
            counts[key] = counts.get(key, 0) + 1
        return {
            "name": self.name,
            "labels": self.labels,
            "count": len(vals),
            "sum": float(sum(vals)),
            "min": ordered[0],
            "max": ordered[-1],
            "mean": float(sum(vals)) / len(vals),
            "p50": pct(0.50),
            "p95": pct(0.95),
            "counts": dict(sorted(counts.items(), key=lambda kv: float(kv[0]))),
        }


class Series(_Metric):
    """Timestamped samples — the memory/queue-depth timeline shape."""

    kind = "series"

    def __init__(self, name: str, labels: dict, clock) -> None:
        super().__init__(name, labels)
        self._clock = clock
        self.samples: list[tuple[float, float]] = []

    def sample(self, value: float) -> None:
        """Append ``(now, value)``."""
        t = self._clock()
        with self._lock:
            self.samples.append((t, float(value)))

    def snapshot(self) -> dict:
        with self._lock:
            samples = [[round(t, 6), v] for t, v in self.samples]
        return {"name": self.name, "labels": self.labels, "samples": samples}


class MetricsRegistry:
    """Get-or-create store of metrics, keyed by name + labels.

    The registry's clock starts at construction so its series share a
    time origin with the tracer created alongside it (see
    :class:`repro.obs.Observation`).
    """

    def __init__(self, t0: float | None = None) -> None:
        self._metrics: dict[_Key, _Metric] = {}
        self._lock = threading.Lock()
        self.t0 = time.perf_counter() if t0 is None else t0

    def _now(self) -> float:
        return time.perf_counter() - self.t0

    def _get(self, cls, name: str, labels: dict, **extra):
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(name, labels, **extra)
                    self._metrics[key] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r}{labels} already registered as {metric.kind}"
            )
        return metric

    # -- factories -----------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter ``name{labels}``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """Get or create the histogram ``name{labels}``."""
        return self._get(Histogram, name, labels)

    def series(self, name: str, **labels) -> Series:
        """Get or create the time series ``name{labels}``."""
        return self._get(Series, name, labels, clock=self._now)

    # -- introspection -------------------------------------------------
    def all(self) -> list[_Metric]:
        """Every registered metric, registration order."""
        with self._lock:
            return list(self._metrics.values())

    def find(self, name: str) -> list[_Metric]:
        """All metrics with the given name (any labels)."""
        return [m for m in self.all() if m.name == name]

    def snapshot(self) -> dict:
        """JSON-serializable dump, grouped by metric kind."""
        out: dict[str, list] = {
            "counters": [],
            "gauges": [],
            "histograms": [],
            "series": [],
        }
        group = {
            "counter": "counters",
            "gauge": "gauges",
            "histogram": "histograms",
            "series": "series",
        }
        for metric in self.all():
            out[group[metric.kind]].append(metric.snapshot())
        return out
