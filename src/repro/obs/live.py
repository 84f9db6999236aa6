"""Streaming telemetry aggregator for live monitoring (``repro.obs.live``).

The record-then-analyze pipeline (:func:`repro.obs.observe` →
``Observation.write``) answers *what happened*; this module answers
*what is happening*.  A :class:`LiveAggregator` sits between the hot
path and the monitoring plane:

* **producers** (service workers, the dispatcher, load-generator
  clients) call :meth:`~LiveAggregator.emit_counter` /
  :meth:`~LiveAggregator.emit_gauge` / :meth:`~LiveAggregator.emit_latency`,
  which append one tuple to a **per-thread ring buffer** — no shared
  lock on the hot path, and when a ring is full the event is *dropped
  and counted*, never blocking the producer;
* a **background collector thread** drains the rings every ``tick_s``,
  folds counters/gauges into process totals and latencies into
  :class:`~repro.obs.sketch.LogHistogram` sketches, and appends a
  counter snapshot to a **rolling window** so :meth:`LiveAggregator.snapshot`
  can report per-second rates and the SLO evaluator can compute
  burn rates over the trailing window rather than process lifetime;
* **providers** registered with :meth:`~LiveAggregator.register_provider`
  (FactorCache stats, queue depth, worker occupancy) are polled at
  snapshot time, so components expose state without pushing events.

SLO evaluation (:class:`Slo`, :func:`parse_slo`) is rolling-window
burn-rate based: with a target error rate ``e`` and window ``W``, the
observed window error rate divided by ``e`` is the **burn rate** — 1.0
means exactly on budget.  ``/healthz`` maps ``ok``/``degraded`` to
HTTP 200 and ``failing`` to 503 (see :mod:`repro.obs.httpd`).

Zero intra-repro imports — providers and the service hand in plain
callables and floats, same duck-typing rule as the rest of
:mod:`repro.obs`.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass

from .sketch import DEFAULT_REL_ERR, LogHistogram

__all__ = [
    "LiveAggregator",
    "Slo",
    "parse_slo",
    "DEFAULT_RING_CAPACITY",
    "DEFAULT_TICK_S",
    "DEFAULT_WINDOW_S",
]

DEFAULT_RING_CAPACITY = 8192
DEFAULT_TICK_S = 0.25
DEFAULT_WINDOW_S = 60.0

_COUNTER, _GAUGE, _LATENCY = 0, 1, 2


class _ThreadSink:
    """One producer thread's bounded event ring.

    Only the owning thread appends; the collector swaps the buffer out
    under the same small lock.  A full ring drops the event and bumps
    ``dropped`` — the hot path never waits on the collector.
    """

    __slots__ = ("capacity", "buf", "dropped", "lock")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.buf: list = []
        self.dropped = 0
        self.lock = threading.Lock()

    def push(self, item) -> None:
        with self.lock:
            if len(self.buf) >= self.capacity:
                self.dropped += 1
                return
            self.buf.append(item)

    def drain(self) -> list:
        with self.lock:
            out, self.buf = self.buf, []
            return out


@dataclass
class Slo:
    """A service-level objective evaluated over the rolling window.

    ``error_rate`` is the budgeted fraction of failed/rejected/dropped
    requests; ``p99_ms`` bounds the 99th-percentile service latency.
    Either may be ``None`` (term not evaluated).  ``window_s`` is
    advisory — the aggregator's own window is authoritative.
    """

    error_rate: float | None = None
    p99_ms: float | None = None
    window_s: float = DEFAULT_WINDOW_S
    error_counters: tuple[str, ...] = (
        "service_request_failed",
        "service_request_rejected",
        "service_request_dropped",
    )
    request_counters: tuple[str, ...] = (
        "service_request_submitted",
    )
    latency_name: str = "service_latency_s"

    def evaluate(self, snapshot: dict) -> dict:
        """``{"status": ok|degraded|failing, ...}`` for ``/healthz``.

        Burn rate = observed window error rate / budgeted error rate;
        <= 1 is on budget, (1, 2] degrades, > 2 fails.  The p99 term
        degrades when over target and fails when over 2x target.
        """
        rates = snapshot.get("rates", {})
        errors = sum(rates.get(c, 0.0) for c in self.error_counters)
        requests = sum(rates.get(c, 0.0) for c in self.request_counters)
        out: dict = {
            "window_s": snapshot.get("window_s", 0.0),
            "checks": {},
        }
        worst = "ok"

        if self.error_rate is not None:
            observed = errors / requests if requests > 0 else 0.0
            burn = observed / self.error_rate if self.error_rate > 0 else 0.0
            status = (
                "ok" if burn <= 1.0 else "degraded" if burn <= 2.0
                else "failing"
            )
            out["checks"]["error_rate"] = {
                "target": self.error_rate,
                "observed": round(observed, 6),
                "burn_rate": round(burn, 3),
                "status": status,
            }
            worst = _worse(worst, status)

        if self.p99_ms is not None:
            lat = snapshot.get("latency", {}).get(self.latency_name, {})
            p99_ms = lat.get("p99", 0.0) * 1e3
            status = (
                "ok" if p99_ms <= self.p99_ms
                else "degraded" if p99_ms <= 2.0 * self.p99_ms
                else "failing"
            )
            out["checks"]["p99_ms"] = {
                "target": self.p99_ms,
                "observed": round(p99_ms, 3),
                "status": status,
            }
            worst = _worse(worst, status)

        out["status"] = worst
        return out


_SEVERITY = {"ok": 0, "degraded": 1, "failing": 2}


def _worse(a: str, b: str) -> str:
    return a if _SEVERITY[a] >= _SEVERITY[b] else b


#: ``--slo`` keys -> :class:`Slo` fields.
_SLO_FIELDS = {"error-rate": "error_rate", "p99-ms": "p99_ms", "window": "window_s"}


def parse_slo(spec: str) -> Slo:
    """Parse a ``--slo`` spec: ``error-rate=0.01,p99-ms=50,window=60``.

    Keys: ``error-rate`` (fraction in (0, 1]), ``p99-ms`` (milliseconds,
    > 0), ``window`` (seconds, > 0).  Raises :class:`ValueError` on
    unknown keys, malformed terms and budgets :meth:`Slo.evaluate`
    cannot check (non-finite or out of range), so the CLI can report
    the offending spec.
    """
    slo = Slo()
    for term in filter(None, (t.strip() for t in spec.split(","))):
        key, sep, value = term.partition("=")
        if not sep:
            raise ValueError(f"malformed SLO term {term!r} (expected key=value)")
        try:
            num = float(value)
        except ValueError:
            raise ValueError(f"non-numeric SLO value in {term!r}") from None
        key = key.strip()
        name = _SLO_FIELDS.get(key)
        if name is None:
            raise ValueError(f"unknown SLO key {key!r} in {spec!r}")
        upper = 1.0 if name == "error_rate" else math.inf
        if not (math.isfinite(num) and 0.0 < num <= upper):
            span = "(0, 1]" if upper == 1.0 else "(0, inf)"
            raise ValueError(f"SLO {key} must lie in {span}, got {term!r}")
        setattr(slo, name, num)
    return slo


class LiveAggregator:
    """Rolling-window streaming aggregator behind the monitoring plane.

    Start with :meth:`start` (spawns the collector thread) or drive it
    synchronously with :meth:`force_collect` in tests.  All emit paths
    are safe to call before :meth:`start` and after :meth:`stop` —
    events simply wait in (or drop from) their rings.
    """

    def __init__(
        self,
        *,
        window_s: float = DEFAULT_WINDOW_S,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        rel_err: float = DEFAULT_REL_ERR,
        tick_s: float = DEFAULT_TICK_S,
        slo: Slo | None = None,
    ) -> None:
        self.window_s = float(window_s)
        self.ring_capacity = int(ring_capacity)
        self.rel_err = float(rel_err)
        self.tick_s = float(tick_s)
        self.slo = slo

        self._local = threading.local()
        self._sinks: list[_ThreadSink] = []
        self._sinks_lock = threading.Lock()

        # collector-owned aggregate state (guarded by _agg_lock so
        # snapshot() can read consistently while the collector folds)
        self._agg_lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.sketches: dict[str, LogHistogram] = {}
        self._window: deque = deque()  # (monotonic_t, {counter: total})
        self._dropped_folded = 0

        self._providers: dict[str, object] = {}
        self._t0 = time.monotonic()
        self._t0_wall = time.time()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- hot path ------------------------------------------------------
    def _sink(self) -> _ThreadSink:
        sink = getattr(self._local, "sink", None)
        if sink is None:
            sink = _ThreadSink(self.ring_capacity)
            self._local.sink = sink
            with self._sinks_lock:
                self._sinks.append(sink)
        return sink

    def emit_counter(self, name: str, amount: float = 1.0) -> None:
        self._sink().push((_COUNTER, name, amount))

    def emit_gauge(self, name: str, value: float) -> None:
        self._sink().push((_GAUGE, name, value))

    def emit_latency(self, name: str, seconds: float) -> None:
        self._sink().push((_LATENCY, name, seconds))

    # -- providers -----------------------------------------------------
    def register_provider(self, name: str, fn) -> None:
        """Poll ``fn()`` (→ JSON-ready dict) at snapshot time under
        ``name``.  Re-registering a name replaces the provider."""
        self._providers[name] = fn

    # -- collector -----------------------------------------------------
    def start(self) -> "LiveAggregator":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="obs-live-collector", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.force_collect()  # drain anything emitted during shutdown

    def _run(self) -> None:
        while not self._stop.wait(self.tick_s):
            self.force_collect()

    def force_collect(self) -> None:
        """One synchronous drain-and-fold pass (the collector's tick)."""
        with self._sinks_lock:
            sinks = list(self._sinks)
        batches = [s.drain() for s in sinks]
        dropped = sum(s.dropped for s in sinks)
        now = time.monotonic()
        with self._agg_lock:
            for batch in batches:
                for item in batch:
                    kind, name, value = item
                    if kind == _COUNTER:
                        self.counters[name] = (
                            self.counters.get(name, 0.0) + value
                        )
                    elif kind == _GAUGE:
                        self.gauges[name] = value
                    else:
                        sk = self.sketches.get(name)
                        if sk is None:
                            sk = self.sketches[name] = LogHistogram(
                                self.rel_err
                            )
                        sk.add(value)
            self._dropped_folded = dropped
            self._window.append((now, dict(self.counters)))
            horizon = now - self.window_s
            # keep one sample at/behind the horizon as the window base
            while len(self._window) >= 2 and self._window[1][0] <= horizon:
                self._window.popleft()

    # -- read side -----------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-ready view: totals, window rates, sketch percentiles,
        provider states, and the monotone dropped-event count."""
        with self._agg_lock:
            counters = dict(self.counters)
            gauges = dict(self.gauges)
            latency = {
                name: {
                    "count": sk.count,
                    "mean": sk.mean,
                    "min": 0.0 if sk.count == 0 else sk.min,
                    "max": 0.0 if sk.count == 0 else sk.max,
                    **sk.percentiles(),
                }
                for name, sk in self.sketches.items()
            }
            dropped = self._dropped_folded
            rates: dict[str, float] = {}
            window_s = 0.0
            if len(self._window) >= 2:
                t_old, base = self._window[0]
                t_new, head = self._window[-1]
                window_s = t_new - t_old
                if window_s > 0:
                    for name, total in head.items():
                        delta = total - base.get(name, 0.0)
                        rates[name] = delta / window_s
        snap = {
            "uptime_s": round(time.monotonic() - self._t0, 3),
            "started_unix": self._t0_wall,
            "counters": counters,
            "gauges": gauges,
            "latency": latency,
            "rates": {k: round(v, 6) for k, v in rates.items()},
            "window_s": round(window_s, 3),
            "dropped_events": dropped,
            "rel_err": self.rel_err,
        }
        providers = {}
        for name, fn in self._providers.items():
            try:
                providers[name] = fn()
            except Exception as exc:  # a dying provider must not kill /stats
                providers[name] = {"error": repr(exc)}
        snap["providers"] = providers
        if self.slo is not None:
            snap["slo"] = self.slo.evaluate(snap)
        return snap

    def health(self) -> dict:
        """The ``/healthz`` body: SLO evaluation (or a bare liveness
        report when no SLO is configured)."""
        snap = self.snapshot()
        if self.slo is None:
            return {
                "status": "ok",
                "window_s": snap["window_s"],
                "checks": {},
                "note": "no SLO configured; liveness only",
            }
        return snap["slo"]
