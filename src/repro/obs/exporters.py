"""Trace/metric exporters: Chrome trace, JSON lines, summary, Prometheus.

One run, four artifacts (all written by :meth:`repro.obs.Observation.write`):

* ``trace.json``   — Chrome-tracing/Perfetto JSON, the format PaRSEC users
  reach via the OTF2 → Chrome converters.  Accepts either a live
  :class:`~repro.obs.tracer.Tracer` (each thread becomes a ``tid`` lane,
  nested spans render stacked) or a simulator / parallel-executor result
  carrying a ``trace`` attribute (the pre-existing per-task tuples —
  this function subsumes the old ``repro.analysis.tracing`` exporter).
* ``events.jsonl`` — one JSON object per span/event, grep- and
  pandas-friendly; the durable raw record.
* ``summary.json`` — aggregated metrics + span statistics; the input of
  ``python -m repro report``.
* ``metrics.prom`` — Prometheus text exposition format (counters,
  gauges, histograms), scrape- or ``promtool``-compatible.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, Series
from .tracer import Tracer

__all__ = [
    "assign_lanes",
    "gantt",
    "utilization_timeline",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_graph_json",
    "prometheus_text",
    "write_prometheus",
    "write_summary_json",
]


def _ensure_suffix(path: str | Path, suffix: str) -> Path:
    path = Path(path)
    if path.suffix != suffix:
        path = path.with_suffix(path.suffix + suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _json_attr(value):
    """JSON-native scalars pass through; everything else is repr'd.

    Keeping ints/floats/strings native lets :mod:`repro.obs.analytics`
    read ``kernel``/``flops`` span annotations back without parsing.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def assign_lanes(trace) -> list[tuple[tuple, int, int, float, float]]:
    """Greedy lane reconstruction for ``(tid, proc, start, end)`` traces.

    Returns ``(tid, proc, lane, start, end)`` rows sorted by process and
    start time; the single source of the lane scheme shared by the
    Chrome exporter and :func:`gantt`.
    """
    lanes: dict[int, list[float]] = {}
    rows = []
    for tid, proc, start, end in sorted(trace, key=lambda r: (r[1], r[2])):
        ends = lanes.setdefault(proc, [])
        for lane, t_end in enumerate(ends):
            if start >= t_end - 1e-15:
                ends[lane] = end
                break
        else:
            lane = len(ends)
            ends.append(end)
        rows.append((tid, proc, lane, start, end))
    return rows


# ----------------------------------------------------------------------
# Text-mode trace views (Gantt chart, utilization timeline)
# ----------------------------------------------------------------------
#: One-character glyph per kernel class for the Gantt cells, keyed by
#: the TaskKind *value* so this module stays free of runtime imports.
_GLYPH = {"potrf": "P", "trsm": "T", "syrk": "S", "gemm": "g"}


def _kind_value(tid) -> str:
    head = tid[0]
    return head.value if hasattr(head, "value") else str(head)


def _require_trace(result) -> list[tuple]:
    if getattr(result, "trace", None) is None:
        raise ValueError(
            "result has no trace; run with collect_trace=True"
        )
    return result.trace


def gantt(result, *, width: int = 80, max_rows: int = 32) -> str:
    """Render a tuple trace as one text row per busy process-core.

    Accepts any result with a ``(tid, proc, start, end)`` ``trace`` and
    a ``makespan`` (``SimResult``, ``ExecutionReport``,
    ``DistributedExecutionReport``).  Tasks are assigned to core lanes
    greedily in start order via :func:`assign_lanes` — the same scheme
    the Chrome exporter uses, so both views agree.  ``.`` marks idle
    buckets; letters mark the task class covering the bucket
    (``P``\\ OTRF, ``T``\\ RSM, ``S``\\ YRK, ``g``\\ EMM).

    Raises :class:`ValueError` when the result carries no trace
    (``collect_trace`` was off) — same contract as
    :func:`write_chrome_trace`.
    """
    trace = _require_trace(result)
    if not trace or result.makespan <= 0:
        return "(empty trace)"
    width = max(10, width)

    rows: dict[tuple[int, int], list[tuple]] = {}
    for tid, proc, lane, start, end in assign_lanes(trace):
        rows.setdefault((proc, lane), []).append((tid, start, end))

    dt = result.makespan / width
    out = []
    for (proc, lane) in sorted(rows)[:max_rows]:
        cells = ["."] * width
        for tid, start, end in rows[(proc, lane)]:
            glyph = _GLYPH.get(_kind_value(tid), "#")
            c0 = min(int(start / dt), width - 1)
            c1 = min(int(max(end - 1e-15, start) / dt), width - 1)
            for c in range(c0, c1 + 1):
                cells[c] = glyph
        out.append(f"p{proc:<3}c{lane:<3}|" + "".join(cells) + "|")
    if len(rows) > max_rows:
        out.append(f"... ({len(rows) - max_rows} more lanes)")
    out.append(
        f"0{'':.<{width - 2}}{result.makespan:.3g}s   "
        "P=potrf T=trsm S=syrk g=gemm .=idle"
    )
    return "\n".join(out)


def utilization_timeline(result, *, buckets: int = 60):
    """Busy-core count per time bucket for a tuple-trace result.

    Returns
    -------
    (times, busy):
        Bucket midpoints and the average number of busy cores in each.

    Raises :class:`ValueError` when the result carries no trace.
    """
    trace = _require_trace(result)
    buckets = max(1, buckets)
    edges = np.linspace(0.0, max(result.makespan, 1e-300), buckets + 1)
    busy = np.zeros(buckets)
    for _, _, start, end in trace:
        if end <= start:
            continue
        lo = np.searchsorted(edges, start, side="right") - 1
        hi = np.searchsorted(edges, end, side="left")
        for bkt in range(max(lo, 0), min(hi, buckets)):
            overlap = min(end, edges[bkt + 1]) - max(start, edges[bkt])
            if overlap > 0:
                busy[bkt] += overlap / (edges[bkt + 1] - edges[bkt])
    mids = 0.5 * (edges[:-1] + edges[1:])
    return mids, busy


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------
def _chrome_events_from_result(result) -> tuple[list[dict], dict]:
    """Events from a ``SimResult``/``ExecutionReport`` trace.

    Processes map to pids, greedily reconstructed core lanes to tids
    (via :func:`assign_lanes`, shared with :func:`gantt`).
    """
    events = []
    for tid, proc, lane, start, end in assign_lanes(result.trace):
        kind = tid[0].value if hasattr(tid[0], "value") else str(tid[0])
        events.append(
            {
                "name": "_".join(str(x) for x in tid),
                "cat": kind,
                "ph": "X",
                "ts": start * 1e6,
                "dur": max(end - start, 0.0) * 1e6,
                "pid": int(proc),
                "tid": int(lane),
            }
        )
    other = {
        "makespan_s": result.makespan,
        "nodes": result.nodes,
        "cores_per_node": result.cores_per_node,
    }
    return events, other


def _chrome_events_from_tracer(tracer: Tracer) -> tuple[list[dict], dict]:
    """Events from a live tracer: one tid lane per thread, spans nested."""
    threads = {name: idx for idx, name in enumerate(tracer.threads())}
    events: list[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": idx,
            "args": {"name": name},
        }
        for name, idx in threads.items()
    ]
    for rec in tracer.spans:
        events.append(
            {
                "name": rec.name,
                "cat": rec.category or "span",
                "ph": "X",
                "ts": rec.start * 1e6,
                "dur": max(rec.duration, 0.0) * 1e6,
                "pid": 0,
                "tid": threads[rec.thread],
                "args": {k: _json_attr(v) for k, v in rec.attrs.items()},
            }
        )
    for rec in tracer.events:
        events.append(
            {
                "name": rec.name,
                "cat": rec.category or "event",
                "ph": "i",
                "s": "t",
                "ts": rec.t * 1e6,
                "pid": 0,
                "tid": threads[rec.thread],
                "args": {k: _json_attr(v) for k, v in rec.attrs.items()},
            }
        )
    return events, {"spans": len(tracer.spans), "threads": len(threads)}


def write_chrome_trace(source, path: str | Path) -> Path:
    """Write a Chrome-tracing JSON from a tracer or a run result.

    Parameters
    ----------
    source:
        A :class:`~repro.obs.tracer.Tracer`, or any object with a
        non-``None`` ``trace`` attribute of ``(tid, proc, start, end)``
        tuples (``SimResult``, ``ExecutionReport``).
    path:
        Output file; ``.json`` appended when missing.

    Raises
    ------
    ValueError
        When a result object has no recorded trace (``collect_trace``
        was off).
    """
    if isinstance(source, Tracer):
        events, other = _chrome_events_from_tracer(source)
    else:
        if getattr(source, "trace", None) is None:
            raise ValueError(
                "result has no trace; run with collect_trace=True"
            )
        events, other = _chrome_events_from_result(source)
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    path = _ensure_suffix(path, ".json")
    path.write_text(json.dumps(doc))
    return path


# ----------------------------------------------------------------------
# JSON-lines event log
# ----------------------------------------------------------------------
def write_events_jsonl(tracer: Tracer, path: str | Path) -> Path:
    """One JSON object per line: every span, then every instant event."""
    path = _ensure_suffix(path, ".jsonl")
    lines = []
    for rec in tracer.spans:
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "name": rec.name,
                    "cat": rec.category,
                    "start": round(rec.start, 6),
                    "end": round(rec.end, 6),
                    "thread": rec.thread,
                    "depth": rec.depth,
                    "parent": rec.parent,
                    "attrs": {k: _json_attr(v) for k, v in rec.attrs.items()},
                }
            )
        )
    for rec in tracer.events:
        lines.append(
            json.dumps(
                {
                    "type": "event",
                    "name": rec.name,
                    "cat": rec.category,
                    "t": round(rec.t, 6),
                    "thread": rec.thread,
                    "attrs": {k: _json_attr(v) for k, v in rec.attrs.items()},
                }
            )
        )
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    return "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _prom_labels(labels: dict, extra: dict | None = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    body = ",".join(
        f'{re.sub(r"[^a-zA-Z0-9_]", "_", k)}="{v}"' for k, v in merged.items()
    )
    return "{" + body + "}"


def _hist_bounds(hist: Histogram) -> list[float]:
    """Bucket upper bounds: exact values when few, percentiles otherwise."""
    uniq = sorted(set(hist.values))
    if len(uniq) <= 16:
        return uniq
    return sorted({hist.percentile(q) for q in range(5, 101, 5)})


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    out: list[str] = []
    typed: set[str] = set()

    def header(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            out.append(f"# TYPE {name} {kind}")

    for metric in registry.all():
        if isinstance(metric, Counter):
            name = _prom_name(metric.name) + "_total"
            header(name, "counter")
            out.append(f"{name}{_prom_labels(metric.labels)} {metric.value:g}")
        elif isinstance(metric, Gauge):
            name = _prom_name(metric.name)
            header(name, "gauge")
            out.append(f"{name}{_prom_labels(metric.labels)} {metric.value:g}")
        elif isinstance(metric, Histogram):
            name = _prom_name(metric.name)
            header(name, "histogram")
            bounds = _hist_bounds(metric)
            for bound, count in zip(bounds, metric.bucket_counts(bounds)):
                le = _prom_labels(metric.labels, {"le": f"{bound:g}"})
                out.append(f"{name}_bucket{le} {count}")
            inf = _prom_labels(metric.labels, {"le": "+Inf"})
            out.append(f"{name}_bucket{inf} {metric.count}")
            out.append(f"{name}_sum{_prom_labels(metric.labels)} {metric.sum:g}")
            out.append(f"{name}_count{_prom_labels(metric.labels)} {metric.count}")
        elif isinstance(metric, Series):
            # No native series type; export the last sample as a gauge.
            if metric.samples:
                name = _prom_name(metric.name)
                header(name, "gauge")
                out.append(
                    f"{name}{_prom_labels(metric.labels)} "
                    f"{metric.samples[-1][1]:g}"
                )
    return "\n".join(out) + ("\n" if out else "")


def write_prometheus(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write :func:`prometheus_text` to ``path`` (``.prom`` appended)."""
    path = _ensure_suffix(path, ".prom")
    path.write_text(prometheus_text(registry))
    return path


# ----------------------------------------------------------------------
# JSON summary
# ----------------------------------------------------------------------
def write_summary_json(observation, path: str | Path) -> Path:
    """Write an observation's :meth:`~repro.obs.Observation.summary`."""
    path = _ensure_suffix(path, ".json")
    path.write_text(json.dumps(observation.summary(), indent=1))
    return path


# ----------------------------------------------------------------------
# Dependency graph
# ----------------------------------------------------------------------
def write_graph_json(graph_doc: dict, path: str | Path) -> Path:
    """Write the dependency-DAG document captured by ``graph_observed``.

    The document maps executor span names to their kernel class,
    modelled flops, and predecessor span names — what
    :func:`repro.obs.analytics.critical_path` joins task spans against.
    """
    path = _ensure_suffix(path, ".json")
    path.write_text(json.dumps(graph_doc, indent=1))
    return path
