"""Zero-dependency span/event tracer (the PaRSEC profiling role).

PaRSEC's evaluation workflow instruments every task body and dumps the
trace for post-mortem analysis (OTF2 → Chrome converters, Gantt charts,
occupancy plots).  :class:`Tracer` reproduces that surface for the whole
Python pipeline — assembly, compression, executors, kernels — with a
context-manager API:

    with tracer.span("gemm", category="kernel", tile=(3, 1)):
        ...

Spans are *thread-aware* (each records the worker thread it ran on) and
*nestable* (a per-thread stack assigns each span its depth and parent, so
a kernel span recorded inside a task span renders nested in Perfetto).
Instant events (:meth:`Tracer.event`) mark moments rather than intervals.

The tracer is deliberately dependency-free and cheap: entering a span is
two ``perf_counter`` calls plus one list append under a lock at exit.
When observability is disabled the library never reaches this module —
call sites go through :func:`repro.obs.span`, which returns a shared
no-op context manager instead (see :class:`NullTracer`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["SpanRecord", "EventRecord", "Tracer", "NullTracer", "NULL_SPAN"]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: a named interval on one thread.

    Attributes
    ----------
    name:
        Span label (e.g. ``"GEMM_3_1_0"`` or ``"compress"``).
    category:
        Coarse grouping used by the exporters and the report
        (``"kernel"``, ``"compress"``, ``"assembly"``, ``"phase"``...).
    start, end:
        Seconds relative to the tracer's start.
    thread:
        Name of the thread the span ran on (``repro-worker-3``,
        ``MainThread``...).
    thread_id:
        ``threading.get_ident()`` of that thread.
    depth:
        Nesting depth on that thread (0 = top level).
    parent:
        Name of the enclosing span on the same thread, or ``None``.
    attrs:
        Free-form attributes supplied at ``span(...)`` time.
    """

    name: str
    category: str
    start: float
    end: float
    thread: str
    thread_id: int
    depth: int
    parent: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class EventRecord:
    """One instant event (a moment, not an interval)."""

    name: str
    category: str
    t: float
    thread: str
    thread_id: int
    attrs: dict = field(default_factory=dict)


class _Span:
    """Context manager recording one span into its tracer."""

    __slots__ = ("_tracer", "_name", "_category", "_attrs", "_start", "_parent")

    def __init__(self, tracer: "Tracer", name: str, category: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else None
        stack.append(self._name)
        self._start = self._tracer.now()
        return self

    def set(self, **attrs) -> None:
        """Attach attributes only known once the block has run."""
        self._attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = self._tracer.now()
        stack = self._tracer._stack()
        depth = len(stack) - 1
        stack.pop()
        th = threading.current_thread()
        rec = SpanRecord(
            name=self._name,
            category=self._category,
            start=self._start,
            end=end,
            thread=th.name,
            thread_id=th.ident or 0,
            depth=depth,
            parent=self._parent,
            attrs=self._attrs,
        )
        with self._tracer._lock:
            self._tracer.spans.append(rec)
        return False


class Tracer:
    """Collects spans and instant events from any number of threads.

    All timestamps are seconds relative to the tracer's construction
    (``t0``), so traces from one run share a common origin with the
    metrics registry's time series.
    """

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self.t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -----------------------------------------------------
    def span(self, name: str, category: str = "", **attrs) -> _Span:
        """A context manager timing the enclosed block as one span."""
        return _Span(self, name, category, attrs)

    def record(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        *,
        thread: str | None = None,
        **attrs,
    ) -> None:
        """Append an already-timed span (replay path).

        Used to merge externally measured intervals — e.g. per-rank task
        timings gathered from worker processes — into this tracer's
        timeline.  ``start``/``end`` are seconds on this tracer's clock
        (relative to ``t0``); the caller is responsible for mapping its
        own clock via :meth:`now`.
        """
        th = threading.current_thread()
        rec = SpanRecord(
            name=name,
            category=category,
            start=start,
            end=end,
            thread=thread if thread is not None else th.name,
            thread_id=0 if thread is not None else (th.ident or 0),
            depth=0,
            parent=None,
            attrs=attrs,
        )
        with self._lock:
            self.spans.append(rec)

    def event(self, name: str, category: str = "", **attrs) -> None:
        """Record an instant event at the current time."""
        th = threading.current_thread()
        rec = EventRecord(
            name=name,
            category=category,
            t=self.now(),
            thread=th.name,
            thread_id=th.ident or 0,
            attrs=attrs,
        )
        with self._lock:
            self.events.append(rec)

    def now(self) -> float:
        """Seconds since the tracer started."""
        return time.perf_counter() - self.t0

    # -- introspection -------------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def threads(self) -> list[str]:
        """Thread names observed, stable order (first appearance)."""
        seen: dict[str, None] = {}
        with self._lock:
            for rec in self.spans:
                seen.setdefault(rec.thread, None)
            for rec in self.events:
                seen.setdefault(rec.thread, None)
        return list(seen)

    def by_category(self) -> dict[str, tuple[int, float]]:
        """``{category: (span_count, total_seconds)}`` aggregate."""
        agg: dict[str, tuple[int, float]] = {}
        with self._lock:
            for rec in self.spans:
                n, s = agg.get(rec.category, (0, 0.0))
                agg[rec.category] = (n + 1, s + rec.duration)
        return agg


class _NullSpan:
    """Shared no-op context manager — the disabled-path span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def set(self, **attrs) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The singleton no-op span; :func:`repro.obs.span` returns this when
#: observability is disabled, so the hot paths allocate nothing.
NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer stand-in whose every operation is a no-op.

    Exists so code holding a tracer reference (rather than going through
    the module-level helpers) can run unconditionally.
    """

    spans: list = []
    events: list = []

    def span(self, name: str, category: str = "", **attrs) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, category: str = "", **attrs) -> None:
        return None

    def now(self) -> float:
        return 0.0

    def threads(self) -> list[str]:
        return []

    def by_category(self) -> dict:
        return {}
