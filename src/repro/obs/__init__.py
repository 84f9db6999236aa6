"""Unified observability: spans, metrics, and run telemetry (``repro.obs``).

The paper's whole evaluation rests on runtime introspection — PaRSEC's
trace output drives the Gantt/occupancy analysis, the BAND_SIZE
auto-tuner consumes the post-compression rank distribution, and the 44x
memory-reduction claim comes from per-tile allocation accounting.  This
package is the one place all of that telemetry flows through:

* a zero-dependency span/event **tracer** (:mod:`repro.obs.tracer`) —
  context-manager API, thread-aware, nestable;
* a **metrics registry** (:mod:`repro.obs.metrics`) — counters, gauges,
  histograms, time series;
* **exporters** (:mod:`repro.obs.exporters`) — Chrome trace, JSON-lines
  event log, JSON summary, Prometheus text format;
* a **report renderer** (:mod:`repro.obs.report`) behind
  ``python -m repro report``.

Usage — wrap any pipeline section in :func:`observe`::

    from repro import obs

    with obs.observe(meta={"run": "demo"}) as run:
        solver = TLRSolver.from_problem(problem, accuracy=1e-6)
        solver.factorize(n_workers=4)
    paths = run.write("runs/demo")        # trace.json, events.jsonl,
                                          # summary.json, metrics.prom

Everything in the library is instrumented through the module-level
helpers below (:func:`span`, :func:`event`, :func:`counter_add`, ...).
They are **no-ops unless an observation is active**: the disabled path
is one ``None`` check (and :func:`span` returns a shared null context
manager), so tracing costs nothing when off — the default.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from .analytics import (
    PredictionAccuracy,
    RunTrace,
    critical_path,
    flop_attribution,
    load_run,
    occupancy,
    prediction_accuracy,
    render_analysis,
    render_diff,
    render_prediction,
    run_from_observation,
    trace_diff,
)
from .exporters import (
    assign_lanes,
    gantt,
    prometheus_text,
    utilization_timeline,
    write_chrome_trace,
    write_events_jsonl,
    write_graph_json,
    write_prometheus,
    write_summary_json,
)
from .httpd import (
    MonitoringServer,
    parse_prometheus_text,
    render_top,
    run_top,
    snapshot_prometheus_text,
)
from .live import LiveAggregator, Slo, parse_slo
from .merge import MergeReport, load_shards, merge_shards
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, Series
from .report import load_summary, render_report
from .sketch import LogHistogram
from .tracer import NULL_SPAN, NullTracer, SpanRecord, Tracer

__all__ = [
    "Observation",
    "observe",
    "active",
    "enabled",
    "span",
    "event",
    "clock",
    "record_span",
    "counter_add",
    "gauge_set",
    "histogram_observe",
    "sample",
    "kernel_observed",
    "pool_observed",
    "graph_document",
    "graph_observed",
    "Tracer",
    "NullTracer",
    "SpanRecord",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "RunTrace",
    "run_from_observation",
    "load_run",
    "critical_path",
    "occupancy",
    "flop_attribution",
    "trace_diff",
    "PredictionAccuracy",
    "prediction_accuracy",
    "render_analysis",
    "render_diff",
    "render_prediction",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_graph_json",
    "write_summary_json",
    "write_prometheus",
    "prometheus_text",
    "load_summary",
    "render_report",
    "assign_lanes",
    "gantt",
    "utilization_timeline",
    "LogHistogram",
    "LiveAggregator",
    "Slo",
    "parse_slo",
    "MonitoringServer",
    "snapshot_prometheus_text",
    "parse_prometheus_text",
    "render_top",
    "run_top",
    "MergeReport",
    "load_shards",
    "merge_shards",
]


class Observation:
    """One observed run: a tracer + a metrics registry sharing a clock.

    Construct directly for an isolated (non-installed) collector, or —
    the usual path — let :func:`observe` install one as the process-wide
    active observation so every instrumented call site feeds it.
    """

    def __init__(self, meta: dict | None = None) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry(t0=self.tracer.t0)
        self.meta: dict = dict(meta or {})
        self.graph: dict | None = None
        self._wall: float | None = None

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Freeze the wall-clock; further records are still accepted."""
        if self._wall is None:
            self._wall = self.tracer.now()

    @property
    def wall_s(self) -> float:
        """Observed wall-clock span in seconds."""
        return self.tracer.now() if self._wall is None else self._wall

    # -- aggregation ---------------------------------------------------
    def summary(self) -> dict:
        """JSON-serializable aggregate of everything recorded."""
        by_cat = {
            cat: [count, round(total, 6)]
            for cat, (count, total) in self.tracer.by_category().items()
        }
        return {
            "meta": self.meta,
            "wall_s": round(self.wall_s, 6),
            "spans": {
                "count": len(self.tracer.spans),
                "events": len(self.tracer.events),
                "by_category": by_cat,
                "threads": self.tracer.threads(),
            },
            "metrics": self.metrics.snapshot(),
        }

    def report(self, width: int = 80) -> str:
        """Render the terminal report for this observation."""
        return render_report(self.summary(), width=width)

    def write(self, outdir) -> dict:
        """Write the run's artifacts into ``outdir``; returns their paths.

        ``trace.json`` (Chrome/Perfetto), ``events.jsonl`` (raw record),
        ``summary.json`` (report input), ``metrics.prom`` (Prometheus),
        plus ``graph.json`` (dependency DAG) when a graph executor ran
        under this observation.
        """
        from pathlib import Path

        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        self.close()
        paths = {
            "chrome": write_chrome_trace(self.tracer, outdir / "trace.json"),
            "events": write_events_jsonl(self.tracer, outdir / "events.jsonl"),
            "summary": write_summary_json(self, outdir / "summary.json"),
            "prometheus": write_prometheus(self.metrics, outdir / "metrics.prom"),
        }
        if self.graph is not None:
            paths["graph"] = write_graph_json(self.graph, outdir / "graph.json")
        return paths


# ----------------------------------------------------------------------
# Process-wide active observation
# ----------------------------------------------------------------------
_active: list[Observation] = []
_install_lock = threading.Lock()


def active() -> Observation | None:
    """The currently installed observation, or ``None`` when disabled."""
    return _active[-1] if _active else None


def enabled() -> bool:
    """True when an observation is installed (telemetry is flowing)."""
    return bool(_active)


@contextmanager
def observe(meta: dict | None = None):
    """Install a fresh :class:`Observation` for the enclosed block.

    Nestable (the innermost observation receives the telemetry); the
    previous state is restored on exit.  The yielded observation stays
    readable after the block — call :meth:`Observation.write` or
    :meth:`Observation.report` on it.
    """
    ob = Observation(meta=meta)
    with _install_lock:
        _active.append(ob)
    try:
        yield ob
    finally:
        ob.close()
        with _install_lock:
            _active.remove(ob)


# ----------------------------------------------------------------------
# Instrumentation helpers (the library's call sites)
# ----------------------------------------------------------------------
def span(name: str, category: str = "", **attrs):
    """A tracer span when observing, the shared null context otherwise."""
    ob = active()
    if ob is None:
        return NULL_SPAN
    return ob.tracer.span(name, category, **attrs)


def event(name: str, category: str = "", **attrs) -> None:
    """Record an instant event on the active observation, if any."""
    ob = active()
    if ob is not None:
        ob.tracer.event(name, category, **attrs)


def clock() -> float:
    """The active observation's tracer time (seconds since its t0).

    Lets code that measures intervals on another clock — worker
    processes timing tasks with ``time.time()`` — map those intervals
    onto the tracer timeline for :func:`record_span`.  Returns 0.0 when
    no observation is active (the replayed offsets are then unused).
    """
    ob = active()
    return ob.tracer.now() if ob is not None else 0.0


def record_span(
    name: str,
    category: str = "",
    *,
    start: float,
    end: float,
    thread: str | None = None,
    **attrs,
) -> None:
    """Replay an externally timed span into the active observation.

    ``start``/``end`` are on the active tracer's clock — anchor foreign
    timestamps with :func:`clock` at a shared wall-clock instant.  Used
    by the distributed executor to merge per-rank task timings gathered
    from worker processes into the controller's trace.
    """
    ob = active()
    if ob is not None:
        ob.tracer.record(
            name, category, start, end, thread=thread, **attrs
        )


def counter_add(name: str, amount: float = 1.0, **labels) -> None:
    """Increment a counter on the active observation, if any."""
    ob = active()
    if ob is not None:
        ob.metrics.counter(name, **labels).inc(amount)


def gauge_set(name: str, value: float, **labels) -> None:
    """Set a gauge on the active observation, if any."""
    ob = active()
    if ob is not None:
        ob.metrics.gauge(name, **labels).set(value)


def histogram_observe(name: str, value: float, **labels) -> None:
    """Observe into a histogram on the active observation, if any."""
    ob = active()
    if ob is not None:
        ob.metrics.histogram(name, **labels).observe(value)


def sample(name: str, value: float, **labels) -> None:
    """Append a timestamped sample to a series, if observing."""
    ob = active()
    if ob is not None:
        ob.metrics.series(name, **labels).sample(value)


def kernel_observed(kernel: str, flops: float) -> None:
    """Record one kernel invocation (Table I class) and its flops."""
    ob = active()
    if ob is not None:
        ob.metrics.counter("kernel_flops", kernel=kernel).inc(flops)
        ob.metrics.counter("kernel_invocations", kernel=kernel).inc()


def graph_document(graph, task_name) -> dict:
    """The JSON-ready dependency document for a task graph.

    Keyed by the executors' *span names* (via the shared ``task_name``
    mapping) so the analytics layer can join task spans with dependency
    edges.  Duck-typed (graph/tasks/deps attribute access only) so
    :mod:`repro.obs` keeps zero intra-repro imports.  Used by
    :func:`graph_observed` for recorded runs and by the autotuner to
    build *predicted* :class:`RunTrace` objects from simulator output.
    """
    tasks = {}
    for tid, task in graph.tasks.items():
        tasks[task_name(tid)] = {
            "kernel": task.kernel.value,
            "flops": task.flops,
            "panel": task.panel,
            "out_tile": list(task.out_tile),
            "deps": sorted({task_name(e.src) for e in task.deps}),
        }
    return {
        "ntiles": getattr(graph, "ntiles", None),
        "band_size": getattr(graph, "band_size", None),
        "tile_size": getattr(graph, "tile_size", None),
        "n_tasks": len(tasks),
        "tasks": tasks,
    }


def graph_observed(graph, task_name) -> None:
    """Register the executing :class:`~repro.runtime.graph.TaskGraph`.

    Called by both graph executors before dispatch.  Stores the
    :func:`graph_document`; written to ``graph.json`` by
    :meth:`Observation.write`.
    """
    ob = active()
    if ob is None:
        return
    ob.graph = graph_document(graph, task_name)


def pool_observed(stats, pool: str) -> None:
    """Snapshot a :class:`~repro.runtime.memory_pool.PoolStats` object.

    Records hit rate, allocation/reuse totals, and the byte high-water
    mark under the ``pool`` label (``"executor"``, ``"workspace"``...).
    Duck-typed so :mod:`repro.obs` keeps zero intra-repro imports.
    """
    ob = active()
    if ob is None or stats is None:
        return
    m = ob.metrics
    m.gauge("pool_hit_rate", pool=pool).set(stats.hit_rate)
    m.gauge("pool_allocations", pool=pool).set(stats.allocations)
    m.gauge("pool_reuses", pool=pool).set(stats.reuses)
    m.gauge("pool_releases", pool=pool).set(stats.releases)
    m.gauge("pool_peak_bytes", pool=pool).set(stats.peak_bytes)
    m.gauge("pool_outstanding_bytes", pool=pool).set(stats.outstanding_bytes)
