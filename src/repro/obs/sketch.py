"""Mergeable log-bucket latency/size sketch (``repro.obs.sketch``).

A fixed-bucket, log-scale (HDR-style) histogram with **exact-merge
semantics** and a **bounded relative error** on every reported
quantile.  This is the streaming replacement for retaining raw sample
lists: the service hot path feeds one :class:`LogHistogram` per thread,
and shards merge into a service-wide view — all without ever holding
samples.

Design
------
For a relative accuracy ``alpha`` (default 1 %), let::

    gamma = (1 + alpha) / (1 - alpha)

Bucket ``i`` covers ``(min_value * gamma**i, min_value * gamma**(i+1)]``
and reports the representative value::

    r_i = min_value * gamma**i * (2 * gamma) / (gamma + 1)

which is the point whose worst-case relative distance to either bucket
edge is exactly ``alpha`` — so every quantile returned by
:meth:`LogHistogram.quantile` is within ``alpha`` *relative* error of
the true order statistic (the DDSketch guarantee, here with a fixed
bucket range instead of a collapsing one).

Because buckets are fixed integer counters, :meth:`LogHistogram.merge`
is element-wise integer addition — exactly associative and commutative,
byte-for-byte reproducible regardless of merge order across threads
or service shards.

Values below ``min_value`` (including zero) land in a dedicated
``zero_count`` bucket reported as 0.0; values above ``max_value`` clamp
into the top bucket (and are tallied in ``overflow``) so the sketch
never grows.  Exact ``count``/``sum``/``min``/``max`` ride along for
free, which keeps averages exact even though quantiles are bounded-
error.

Zero intra-repro imports, stdlib + numpy only — same rule as the rest
of :mod:`repro.obs`.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["LogHistogram", "DEFAULT_REL_ERR"]

DEFAULT_REL_ERR = 0.01


class LogHistogram:
    """Fixed-range log-bucket histogram with bounded-relative-error quantiles.

    Parameters
    ----------
    rel_err:
        Relative accuracy ``alpha`` of reported quantiles (default 1 %).
    min_value, max_value:
        The covered range.  The defaults (1 ns .. 1 Gs for seconds, or
        1 byte .. 1 GB for sizes) give ~4150 buckets at 1 % — a few KB
        of int64 counters.

    Thread safety: :meth:`add` and :meth:`merge` take an internal lock;
    the per-thread ring-buffer path in :mod:`repro.obs.live` avoids even
    that by giving each thread its own sketch and merging off-thread.
    """

    __slots__ = (
        "rel_err", "min_value", "max_value", "gamma", "_log_gamma",
        "_nbuckets", "counts", "zero_count", "overflow",
        "count", "sum", "min", "max", "_lock",
    )

    def __init__(
        self,
        rel_err: float = DEFAULT_REL_ERR,
        *,
        min_value: float = 1e-9,
        max_value: float = 1e9,
    ) -> None:
        if not 0.0 < rel_err < 1.0:
            raise ValueError(f"rel_err must be in (0, 1), got {rel_err}")
        if not 0.0 < min_value < max_value:
            raise ValueError(
                f"need 0 < min_value < max_value, got {min_value}, {max_value}"
            )
        self.rel_err = float(rel_err)
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.gamma = (1.0 + rel_err) / (1.0 - rel_err)
        self._log_gamma = math.log(self.gamma)
        span = math.log(max_value / min_value) / self._log_gamma
        self._nbuckets = int(math.ceil(span)) + 1
        self.counts = np.zeros(self._nbuckets, dtype=np.int64)
        self.zero_count = 0
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    # -- configuration identity ---------------------------------------
    @property
    def config(self) -> tuple[float, float, float]:
        """The merge-compatibility key: (rel_err, min_value, max_value)."""
        return (self.rel_err, self.min_value, self.max_value)

    def _bucket_index(self, value: float) -> int:
        # ceil(log_gamma(v / min)) clamped into [0, nbuckets)
        idx = math.ceil(math.log(value / self.min_value) / self._log_gamma)
        if idx < 0:
            return 0
        if idx >= self._nbuckets:
            return self._nbuckets - 1
        return idx

    def _representative(self, idx: int) -> float:
        if idx == 0:
            return self.min_value
        # geometric midpoint of (min*g^(i-1), min*g^i]: worst-case
        # relative distance to either edge is exactly rel_err
        return (
            self.min_value
            * self.gamma ** idx
            * 2.0
            / (self.gamma + 1.0)
        )

    # -- recording -----------------------------------------------------
    def add(self, value: float, count: int = 1) -> None:
        """Record ``count`` occurrences of ``value``.

        Negative and NaN values are ignored (latencies and sizes are
        non-negative by construction; a clock hiccup must not poison
        the sketch).
        """
        v = float(value)
        if count <= 0 or math.isnan(v) or v < 0.0:
            return
        with self._lock:
            self.count += count
            self.sum += v * count
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v
            if v < self.min_value:
                self.zero_count += count
                return
            if v > self.max_value:
                self.overflow += count
            self.counts[self._bucket_index(min(v, self.max_value))] += count

    def extend(self, values) -> None:
        """Record an iterable of values (convenience for tests/loadgen)."""
        for v in values:
            self.add(v)

    # -- merging -------------------------------------------------------
    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into ``self`` (exact: element-wise int adds).

        Raises :class:`ValueError` when the two sketches were built with
        different (rel_err, min_value, max_value) — bucket boundaries
        would not line up and the merge would silently corrupt counts.
        """
        if self.config != other.config:
            raise ValueError(
                f"cannot merge sketches with different configs: "
                f"{self.config} != {other.config}"
            )
        with self._lock:
            self.counts += other.counts
            self.zero_count += other.zero_count
            self.overflow += other.overflow
            self.count += other.count
            self.sum += other.sum
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
        return self

    def copy(self) -> "LogHistogram":
        """An independent snapshot (safe to merge elsewhere)."""
        out = LogHistogram(
            self.rel_err, min_value=self.min_value, max_value=self.max_value
        )
        with self._lock:
            out.counts = self.counts.copy()
            out.zero_count = self.zero_count
            out.overflow = self.overflow
            out.count = self.count
            out.sum = self.sum
            out.min = self.min
            out.max = self.max
        return out

    # -- quantiles -----------------------------------------------------
    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1), within ``rel_err`` relative
        error of the exact order statistic.  Returns 0.0 on an empty
        sketch."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self.count
            if total == 0:
                return 0.0
            # nearest-rank: the k-th smallest recorded value, k in [1, n]
            rank = max(1, math.ceil(q * total))
            if rank <= self.zero_count:
                return 0.0
            remaining = rank - self.zero_count
            cum = np.cumsum(self.counts)
            idx = int(np.searchsorted(cum, remaining))
            if idx >= self._nbuckets:
                idx = self._nbuckets - 1
            return self._representative(idx)

    def percentile(self, p: float) -> float:
        """``quantile(p / 100)`` — mirrors :meth:`Histogram.percentile`."""
        return self.quantile(p / 100.0)

    def percentiles(self, ps=(50.0, 95.0, 99.0)) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` in one pass."""
        return {f"p{_pkey(p)}": self.percentile(p) for p in ps}

    @property
    def mean(self) -> float:
        """Exact mean of all recorded values (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """Sparse JSON-ready form: only non-zero buckets are stored."""
        with self._lock:
            nz = np.flatnonzero(self.counts)
            return {
                "rel_err": self.rel_err,
                "min_value": self.min_value,
                "max_value": self.max_value,
                "buckets": {int(i): int(self.counts[i]) for i in nz},
                "zero_count": int(self.zero_count),
                "overflow": int(self.overflow),
                "count": int(self.count),
                "sum": float(self.sum),
                "min": None if math.isinf(self.min) else float(self.min),
                "max": None if math.isinf(self.max) else float(self.max),
            }

    @classmethod
    def from_dict(cls, d: dict) -> "LogHistogram":
        out = cls(
            d["rel_err"],
            min_value=d["min_value"],
            max_value=d["max_value"],
        )
        for i, c in d["buckets"].items():
            out.counts[int(i)] = int(c)
        out.zero_count = int(d["zero_count"])
        out.overflow = int(d.get("overflow", 0))
        out.count = int(d["count"])
        out.sum = float(d["sum"])
        out.min = math.inf if d["min"] is None else float(d["min"])
        out.max = -math.inf if d["max"] is None else float(d["max"])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogHistogram(rel_err={self.rel_err}, count={self.count}, "
            f"p50={self.quantile(0.5):.6g}, p99={self.quantile(0.99):.6g})"
        )


def _pkey(p: float) -> str:
    """``50.0 -> '50'``, ``99.9 -> '99.9'`` — stable percentile keys."""
    return f"{p:g}"
