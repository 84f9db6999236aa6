"""The solver service: sharded workers, batched solves, bounded queues.

:class:`SolverService` is the factorize-once/solve-many runtime the
production workload (ROADMAP item 2) consumes: clients open a
:class:`ServiceSession` for a covariance problem and fire right-hand
sides at it; the service keys the problem into the
:class:`~repro.service.cache.FactorCache`, factorizes at most once per
identity, and serves every solve from the resident factor.

Architecture, in the order a request sees it:

1. **Admission** — :meth:`ServiceSession.submit` runs the bounded-depth
   check atomically in the scheduler database
   (:class:`~repro.service.database.ServiceDatabase`).  A full queue is
   an explicit :class:`~repro.utils.exceptions.QueueFullError`; a
   stopped service is a
   :class:`~repro.utils.exceptions.ServiceClosedError`.  Backpressure
   is the caller's signal, never silent buffering.
2. **Sharding** — admitted requests land on the worker shard owning
   their factor identity (``key.digest() mod n_workers``).  A factor is
   resident with exactly one worker, so every request against it meets
   the warm cache *and* the batcher, and workers never contend on the
   same factor.
3. **Batching** — a worker drains its shard queue and groups up to
   ``max_batch`` same-key requests into one stacked
   :func:`~repro.core.solve.solve_many` call: one substitution sweep,
   one ``solve_triangular`` per diagonal tile for *all* pending
   columns (the :mod:`repro.linalg.batched` marshaling idiom on the
   solve side).  Requests for other keys keep their FIFO positions.
4. **Deadlines** — a request whose deadline passed while queued is
   dropped at dequeue (``dropped`` transition,
   :class:`~repro.utils.exceptions.DeadlineExceededError` to the
   waiter) — a dead request must not widen a live batch.

Obs instrumentation rides the database's update handlers (queue-depth
gauge, per-outcome counters) plus worker-side spans: a
``service_batch`` span per stacked solve, a replayed ``service_request``
span per request covering its full queue-to-completion lifetime, and
histograms of batch width and request latency.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import obs
from ..core.api import TLRSolver
from ..core.solve import solve_many, solve_spd
from ..utils.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
)
from .cache import FactorCache, FactorKey, FactorRecipe
from .database import ServiceDatabase

__all__ = [
    "ServiceConfig",
    "SolveTicket",
    "ServiceSession",
    "ServiceStats",
    "SolverService",
    "percentiles",
]


def percentiles(
    samples, pcts: tuple[float, ...] = (50.0, 95.0, 99.0)
) -> tuple[float, ...]:
    """Latency percentiles by linear interpolation (empty → zeros).

    The service reports p50/p95/p99 of *client-observed* latency —
    submit to completion, queueing included — which is the quantity a
    serving SLO is written against (the median says what a typical
    request sees; the tails say what admission control and batching do
    under load).
    """
    if len(samples) == 0:
        return tuple(0.0 for _ in pcts)
    arr = np.asarray(list(samples), dtype=np.float64)
    return tuple(float(np.percentile(arr, p)) for p in pcts)


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (per-session solver knobs live on the session).

    Attributes
    ----------
    n_workers:
        Solver worker threads = shard count.  Each factor identity is
        owned by exactly one shard.
    max_queue_depth:
        Bounded pending depth across all shards; submissions beyond it
        raise :class:`~repro.utils.exceptions.QueueFullError`.
    max_batch:
        Most same-factor requests stacked into one
        :func:`~repro.core.solve.solve_many` call.  ``1`` disables
        batching (the bench's one-at-a-time arm).
    cache_bytes:
        :class:`~repro.service.cache.FactorCache` LRU budget
        (``None`` = unbounded).
    warm_dir:
        Checkpoint warm-start tier root (``None`` = off).
    default_deadline_s:
        Deadline budget applied to requests that don't carry their own
        (``None`` = requests wait forever).
    """

    n_workers: int = 2
    max_queue_depth: int = 64
    max_batch: int = 16
    cache_bytes: int | None = None
    warm_dir: str | Path | None = None
    default_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if self.max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be >= 1")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")


class SolveTicket:
    """One in-flight solve request: a waitable result slot.

    Created by :meth:`ServiceSession.submit`; resolved by a worker.
    ``submitted_s``/``started_s``/``completed_s`` are monotonic-clock
    stamps; :attr:`latency_s` is the client-observed submit→complete
    interval and :attr:`wait_s` the queue share of it.
    """

    __slots__ = (
        "id", "key", "rhs", "deadline_s", "submitted_s", "started_s",
        "completed_s", "batch_width", "_obs_submit", "_event",
        "_result", "_error",
    )

    def __init__(
        self,
        request_id: int,
        key: FactorKey,
        rhs: np.ndarray,
        deadline_s: float | None,
    ) -> None:
        self.id = request_id
        self.key = key
        self.rhs = rhs
        self.deadline_s = deadline_s          # absolute, monotonic clock
        self.submitted_s = time.monotonic()
        self.started_s: float | None = None
        self.completed_s: float | None = None
        self.batch_width = 0
        self._obs_submit = obs.clock()
        self._event = threading.Event()
        self._result: np.ndarray | None = None
        self._error: BaseException | None = None

    # -- waiter side -----------------------------------------------------
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block for the solution; re-raises the request's failure."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.id} not finished within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def latency_s(self) -> float | None:
        if self.completed_s is None:
            return None
        return self.completed_s - self.submitted_s

    @property
    def wait_s(self) -> float | None:
        if self.started_s is None:
            return None
        return self.started_s - self.submitted_s

    # -- worker side -----------------------------------------------------
    def _finish(self, result=None, error=None) -> None:
        self.completed_s = time.monotonic()
        self._result = result
        self._error = error
        self._event.set()

    def expired(self, now: float | None = None) -> bool:
        if self.deadline_s is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline_s


@dataclass
class ServiceStats:
    """Point-in-time service counters + latency percentiles."""

    completed: int = 0
    failed: int = 0
    rejected: int = 0
    dropped: int = 0
    batches: int = 0
    queue_depth: int = 0
    mean_batch_width: float = 0.0
    max_batch_width: int = 0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    cache: object = None
    latencies_s: tuple = field(default_factory=tuple, repr=False)


class _Shard:
    """One worker's queue: a condition-guarded FIFO list.

    A list (not a deque) because the batcher extracts same-key items
    from the middle while preserving every other request's position.
    """

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.items: list[SolveTicket] = []


class ServiceSession:
    """A client's handle on one factor identity.

    Bind a problem (plus solver knobs) once; every :meth:`submit` /
    :meth:`solve` then routes to the same cached factor.  Sessions are
    cheap — the factor builds lazily on first use (or eagerly via
    :meth:`warm`) and is shared with any other session of the same
    identity.
    """

    def __init__(
        self, service: "SolverService", recipe: FactorRecipe
    ) -> None:
        self.service = service
        self.recipe = recipe
        self.key = recipe.key()

    def warm(self):
        """Ensure the factor is resident (factorize/warm-start now).

        Runs on the calling thread, outside the request queue — the
        "factorize once" half of factorize-once/solve-many.  Returns
        the :class:`~repro.service.cache.CacheEntry`.
        """
        return self.service.cache.get_or_build(self.recipe)

    def submit(
        self, rhs: np.ndarray, *, deadline_s: float | None = None
    ) -> SolveTicket:
        """Enqueue a solve; returns immediately with a waitable ticket.

        ``deadline_s`` is a *relative* budget from now (defaults to the
        service's ``default_deadline_s``); a request still queued when
        it lapses is dropped, and :meth:`SolveTicket.result` raises
        :class:`~repro.utils.exceptions.DeadlineExceededError`.
        """
        return self.service._submit(self, rhs, deadline_s=deadline_s)

    def solve(
        self, rhs: np.ndarray, *, timeout: float | None = None
    ) -> np.ndarray:
        """Synchronous submit + wait."""
        return self.submit(rhs).result(timeout)


class SolverService:
    """Factorization-cache + solve-serving runtime (see module docs).

    Usage::

        with SolverService(ServiceConfig(n_workers=2)) as svc:
            session = svc.session(problem, accuracy=1e-6)
            x = session.solve(rhs)                   # sync
            tickets = [session.submit(b) for b in rhs_batch]
            xs = [t.result() for t in tickets]       # concurrent

    Requests may be submitted before :meth:`start`; they queue and run
    when the workers come up (the tests use this to fill the queue
    deterministically).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        cache: FactorCache | None = None,
        live=None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.cache = cache or FactorCache(
            max_bytes=self.config.cache_bytes,
            warm_dir=self.config.warm_dir,
        )
        self.db = ServiceDatabase(max_depth=self.config.max_queue_depth)
        self._shards = [_Shard() for _ in range(self.config.n_workers)]
        self._threads: list[threading.Thread] = []
        self._recipes: dict[FactorKey, FactorRecipe] = {}
        self._recipes_lock = threading.Lock()
        self._id_lock = threading.Lock()
        self._next_id = 0
        self._started = False
        self._stopping = False
        self._stats_lock = threading.Lock()
        self._latencies: list[float] = []
        self._batch_widths: list[int] = []
        self.live = live
        self._worker_busy_s = [0.0] * self.config.n_workers
        self._worker_t0: float | None = None
        self._install_obs_handlers()
        if live is not None:
            self._register_live_providers(live)

    # -- obs wiring ------------------------------------------------------
    def _install_obs_handlers(self) -> None:
        """Queue-depth gauge + per-outcome counters, via db handlers.

        Every transition also streams to the live aggregator (when one
        is attached) — a ring-buffer append, so the admission path never
        blocks on the monitoring plane.
        """

        def _on_transition(event, request, db) -> None:
            obs.counter_add(f"service_request_{event}")
            obs.gauge_set("service_queue_depth", db.depth())
            live = self.live
            if live is not None:
                live.emit_counter(f"service_request_{event}")
                live.emit_gauge("service_queue_depth", db.depth())

        for event in ("submitted", "rejected", "started",
                      "completed", "failed", "dropped"):
            self.db.on(event, _on_transition)

    def _register_live_providers(self, live) -> None:
        """Pull-side state for ``/stats``: cache, queues, occupancy."""

        def _cache() -> dict:
            cs = self.cache.stats()
            return {
                "hits": cs.hits,
                "misses": cs.misses,
                "evictions": cs.evictions,
                "warm_starts": cs.warm_starts,
                "factorizations": cs.factorizations,
                "resident_bytes": cs.resident_bytes,
                "hit_rate": round(cs.hit_rate, 4),
            }

        def _queue() -> dict:
            return {
                "depth": self.db.depth(),
                "shards": [len(s.items) for s in self._shards],
            }

        def _workers() -> dict:
            if self._worker_t0 is None:
                return {"n_workers": self.config.n_workers, "occupancy": []}
            up = max(time.monotonic() - self._worker_t0, 1e-9)
            return {
                "n_workers": self.config.n_workers,
                "occupancy": [
                    round(min(b / up, 1.0), 4) for b in self._worker_busy_s
                ],
            }

        live.register_provider("cache", _cache)
        live.register_provider("queue", _queue)
        live.register_provider("workers", _workers)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "SolverService":
        if self._started:
            return self
        if self._stopping:
            raise ServiceClosedError("service was stopped; build a new one")
        self._started = True
        self._worker_t0 = time.monotonic()
        for wid in range(self.config.n_workers):
            t = threading.Thread(
                target=self._worker, args=(wid,),
                name=f"solver-worker-{wid}", daemon=True,
            )
            t.start()
            self._threads.append(t)
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop the workers; by default finish everything queued first.

        With ``drain=False`` still-pending requests fail with
        :class:`~repro.utils.exceptions.ServiceClosedError`.
        """
        self._stopping = True
        if not drain:
            for shard in self._shards:
                with shard.cond:
                    orphans, shard.items = shard.items, []
                for req in orphans:
                    self.db.finish(req, "failed")
                    req._finish(error=ServiceClosedError(
                        "service stopped before the request ran"
                    ))
        for shard in self._shards:
            with shard.cond:
                shard.cond.notify_all()
        for t in self._threads:
            t.join()
        self._threads.clear()
        # anything still queued (service never started, or drain=False
        # raced a submit) must not leave its waiter hanging
        for shard in self._shards:
            with shard.cond:
                orphans, shard.items = shard.items, []
            for req in orphans:
                self.db.finish(req, "failed")
                req._finish(error=ServiceClosedError(
                    "service stopped before the request ran"
                ))

    def __enter__(self) -> "SolverService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sessions / registration ----------------------------------------
    def session(
        self,
        problem,
        *,
        accuracy: float = 1e-8,
        band_size: int | str = "auto",
        compression: str | None = None,
        maxrank: int | None = None,
        n_workers: int | None = None,
    ) -> ServiceSession:
        """Open a session for a problem (same knobs as ``TLRSolver``)."""
        recipe = FactorRecipe(
            problem=problem,
            accuracy=accuracy,
            band_size=band_size,
            compression=compression,
            maxrank=maxrank,
            n_workers=n_workers,
        )
        with self._recipes_lock:
            self._recipes.setdefault(recipe.key(), recipe)
        return ServiceSession(self, recipe)

    def register_solver(self, solver: TLRSolver) -> ServiceSession:
        """Adopt an already-factorized :class:`TLRSolver` into the cache.

        The factorize-anywhere/serve-here path: the solver's factor is
        installed under its derived key, so sessions on the same
        identity start cache-warm with zero service-side
        factorizations.
        """
        if not solver.is_factorized:
            raise ConfigurationError(
                "register_solver needs a factorized TLRSolver"
            )
        if solver.problem is None:
            raise ConfigurationError(
                "register_solver needs solver.problem for the geometry key"
            )
        matrix = solver.matrix
        recipe = FactorRecipe(
            problem=solver.problem,
            accuracy=matrix.rule.eps,
            band_size=matrix.band_size,
            maxrank=matrix.rule.maxrank,
        )
        key = recipe.key()  # == solver.factor_key() by construction
        self.cache.install(key, matrix, solver.report)
        with self._recipes_lock:
            self._recipes[key] = recipe
        return ServiceSession(self, recipe)

    # -- submission ------------------------------------------------------
    def _submit(
        self,
        session: ServiceSession,
        rhs: np.ndarray,
        *,
        deadline_s: float | None = None,
    ) -> SolveTicket:
        if self._stopping:
            raise ServiceClosedError("service is stopped")
        budget = (
            deadline_s if deadline_s is not None
            else self.config.default_deadline_s
        )
        deadline = time.monotonic() + budget if budget is not None else None
        with self._id_lock:
            self._next_id += 1
            rid = self._next_id
        ticket = SolveTicket(rid, session.key, np.asarray(rhs), deadline)
        if not self.db.admit(ticket):
            raise QueueFullError(
                f"queue at max depth {self.config.max_queue_depth}; "
                f"request {rid} rejected"
            )
        shard = self._shards[self._shard_of(session.key)]
        with shard.cond:
            shard.items.append(ticket)
            shard.cond.notify()
        return ticket

    def _shard_of(self, key: FactorKey) -> int:
        return int(key.digest(8), 16) % self.config.n_workers

    # -- worker loop -----------------------------------------------------
    def _worker(self, wid: int) -> None:
        shard = self._shards[wid]
        while True:
            with shard.cond:
                while not shard.items and not self._stopping:
                    shard.cond.wait(timeout=0.1)
                if not shard.items:
                    if self._stopping:
                        return
                    continue
                group = self._take_group_locked(shard)
            t0 = time.monotonic()
            self._execute_group(group)
            # own-slot write: occupancy accounting needs no lock
            self._worker_busy_s[wid] += time.monotonic() - t0

    def _take_group_locked(self, shard: _Shard) -> list[SolveTicket]:
        """Pop the head request plus same-key followers, up to max_batch.

        Non-matching requests keep their queue positions — batching
        must never starve a different factor's requests.
        """
        group = [shard.items.pop(0)]
        if self.config.max_batch > 1:
            i = 0
            while i < len(shard.items) and len(group) < self.config.max_batch:
                if shard.items[i].key == group[0].key:
                    group.append(shard.items.pop(i))
                else:
                    i += 1
        return group

    def _execute_group(self, group: list[SolveTicket]) -> None:
        now = time.monotonic()
        live: list[SolveTicket] = []
        for req in group:
            if req.expired(now):
                self.db.finish(req, "dropped")
                req._finish(error=DeadlineExceededError(
                    f"request {req.id} missed its deadline by "
                    f"{now - req.deadline_s:.3f}s while queued"
                ))
            else:
                live.append(req)
        if not live:
            return
        for req in live:
            req.started_s = now
            self.db.start(req)
        key = live[0].key
        try:
            with self._recipes_lock:
                recipe = self._recipes.get(key)
            if recipe is None:
                raise ConfigurationError(
                    f"no recipe registered for factor key {key.digest()}"
                )
            entry = self.cache.get_or_build(recipe)
            width = len(live)
            with obs.span(
                "service_batch", "service", key=key.digest(), width=width,
            ):
                if width == 1:
                    results = [solve_spd(entry.matrix, live[0].rhs)]
                else:
                    results = solve_many(
                        entry.matrix, [req.rhs for req in live]
                    )
        except BaseException as err:  # noqa: BLE001 - delivered to waiters
            for req in live:
                self.db.finish(req, "failed")
                req._finish(error=err)
            return
        end_clock = obs.clock()
        latencies = []
        for req, x in zip(live, results):
            req.batch_width = width
            req._finish(result=x)
            self.db.finish(req, "completed")
            latency = req.latency_s
            latencies.append(latency)
            obs.record_span(
                "service_request", "service",
                start=req._obs_submit, end=end_clock,
                request=req.id, key=key.digest(),
                batch=width, wait_s=round(req.wait_s, 6),
            )
            obs.histogram_observe("service_request_latency_s", latency)
        obs.histogram_observe("service_batch_width", width)
        live = self.live
        if live is not None:
            for latency in latencies:
                live.emit_latency("service_latency_s", latency)
            live.emit_counter("service_batches")
            live.emit_gauge("service_batch_width", width)
        with self._stats_lock:
            self._latencies.extend(latencies)
            self._batch_widths.append(width)

    # -- introspection ---------------------------------------------------
    def stats(self) -> ServiceStats:
        outcomes = self.db.outcome_counts()
        with self._stats_lock:
            lats = tuple(self._latencies)
            widths = tuple(self._batch_widths)
        p50, p95, p99 = percentiles(lats)
        return ServiceStats(
            completed=outcomes.get("completed", 0),
            failed=outcomes.get("failed", 0),
            rejected=outcomes.get("rejected", 0),
            dropped=outcomes.get("dropped", 0),
            batches=len(widths),
            queue_depth=self.db.depth(),
            mean_batch_width=(
                sum(widths) / len(widths) if widths else 0.0
            ),
            max_batch_width=max(widths) if widths else 0,
            p50_ms=p50 * 1e3,
            p95_ms=p95 * 1e3,
            p99_ms=p99 * 1e3,
            cache=self.cache.stats(),
            latencies_s=lats,
        )
