"""The in-process execution core: one dependency-driven loop, real numerics.

One worker loop unfolds the Cholesky :class:`~repro.runtime.graph
.TaskGraph` — the same graph the simulator replays — whatever the worker
set: a ready queue fed by dependency countdown (PaRSEC's activation
model), per-tile write locks so independent GEMMs update disjoint tiles
at the same time, and every HCORE kernel actually performed on a
:class:`~repro.matrix.BandTLRMatrix`.  ``n_workers=1`` runs the loop
inline on the calling thread (no thread is started and nothing ever
blocks); ``n_workers=N`` runs the same loop on N threads.  NumPy/SciPy
release the GIL inside BLAS/LAPACK calls, so the kernels — where
virtually all the time goes — genuinely overlap.
:func:`execute_graph` is the core at one worker.

Determinism: every write to a tile is totally ordered by the graph's
dataflow edges (the LOCAL chains of the PTG), and every read is ordered
against the tile's final write, so the computed factor is *bitwise
identical* to the reference loops of :mod:`repro.core.factorize` for any
worker count, scheduler policy (``priority``/``fifo``/``lifo``, matching
:func:`repro.runtime.simulator.simulate`) and interleaving.  A worker
claims, runs and commits one task at a time.

Deadlock: the loop has one rule — ready set empty, nothing in flight and
tasks left means no task can ever become ready, and the run raises
:class:`SchedulingError` (a cyclic or otherwise unsatisfiable graph) for
every worker count.

The report quacks like a :class:`~repro.runtime.simulator.SimResult`
(``trace``, ``makespan``, ``busy``, ``occupancy``) so the analysis
pipeline — :func:`repro.obs.exporters.gantt`,
:func:`repro.analysis.occupancy_summary`,
:func:`repro.obs.exporters.write_chrome_trace` — consumes real executions
exactly as it consumes simulated ones.

Low-rank destinations exercise the dynamic-memory path: recompression
output factors are re-associated with a :class:`MemoryPool` and rank-growth
reallocations are counted, mirroring Section VII-B.

Resilience: ``faults`` (a spec string, :class:`FaultPlan`, or injector)
and/or ``recovery`` (a :class:`RecoveryPolicy`) run every task under the
retry/rollback engine of :mod:`repro.runtime.resilience` — the
deterministic fault draws depend only on (seed, task, attempt), so a
chaotic run still produces the bitwise-identical factor.  ``checkpoint``
(a directory or :class:`CheckpointConfig`) persists the completed-panel
frontier at panel boundaries after *quiescing* the workers (no task in
flight — trivially true at one worker), so every archive is a consistent
dataflow cut; ``resume=True`` restarts from the latest one, under any
worker count.

Failures: an exception raised by a task on a worker *thread* — or on a
rank *process* — reaches the caller wrapped in :class:`RuntimeSystemError`
(original chained); at one inline worker there is no boundary and it
propagates unchanged.  ``KeyboardInterrupt``/``SystemExit`` are never
wrapped: the run drains the ready queue, releases every pool-owned factor
buffer, and re-raises them.

Ranks: each process of :mod:`repro.runtime.distributed` is one inline
worker of this loop, handed an internal *link* (``_link``; not an option)
for the three things a rank does differently.  It runs only the tasks it
owns, and a dependency whose producer lives on another rank is released by
that tile's *arrival*, not by a local commit; with nothing ready, nothing
in flight and arrivals outstanding it blocks on its inbox (which obeys
the controller's stop and checks the deadline) instead of declaring a
deadlock; and a commit is followed by the send to the consumer ranks and,
on a closed panel, the frontier shard to the controller, instead of a
quiesced checkpoint.  Everything else — ready set, scheduler policy,
recovery engine, pool, accounting, trace — is the code above.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..linalg import hcore
from ..linalg.backends import get_backend
from ..linalg.compression import TruncationRule
from ..linalg.flops import FlopCounter
from ..linalg.tiles import DenseTile, LowRankTile
from ..matrix.memory import MemoryTracker
from ..matrix.tlr_matrix import BandTLRMatrix
from ..utils.exceptions import RuntimeSystemError, SchedulingError
from ..utils.validation import check_positive_int
from .graph import TaskGraph
from .memory_pool import MemoryPool
from .parallel import (
    ThreadSafeFlopCounter,
    ThreadSafeMemoryPool,
    ThreadSafeMemoryTracker,
)
from .resilience import ResilienceReport, as_checkpointer, build_manager
from .task import TaskKind, task_name, task_sort_key

__all__ = ["ExecutionReport", "execute_graph", "execute_graph_parallel"]


@dataclass
class ExecutionReport:
    """Artifacts of a real (numerical) in-process graph execution.

    Attributes
    ----------
    counter:
        Modelled flops actually incurred, by kernel class.
    tracker:
        Live memory accounting (current/peak/reallocations).
    pool:
        The dynamic memory pool used for low-rank factors.
    rank_growth_events:
        Number of recompressions whose output rank exceeded the
        destination tile's previous rank (each triggers a reallocation).
    max_rank_seen:
        Largest low-rank tile rank observed during the factorization
        (the paper's final maxrank, cf. Fig. 1).
    tasks_executed:
        Total tasks run (excluding tasks restored from a checkpoint).
    tasks_resumed:
        Tasks skipped because a restored checkpoint had completed them.
    resilience:
        Recovery-engine counters (``None`` when no faults/recovery/
        checkpointing was requested).
    n_workers, makespan, busy, total_flops, trace:
        The timing surface of a :class:`~repro.runtime.simulator
        .SimResult`; each worker maps to one "process" lane
        (``nodes = n_workers``, ``cores_per_node = 1``).
    """

    counter: FlopCounter = field(default_factory=ThreadSafeFlopCounter)
    tracker: MemoryTracker = field(default_factory=ThreadSafeMemoryTracker)
    pool: MemoryPool = field(default_factory=ThreadSafeMemoryPool)
    rank_growth_events: int = 0
    max_rank_seen: int = 0
    tasks_executed: int = 0
    tasks_resumed: int = 0
    resilience: ResilienceReport | None = None
    n_workers: int = 1
    makespan: float = 0.0
    busy: np.ndarray = field(default_factory=lambda: np.zeros(1))
    total_flops: float = 0.0
    trace: list[tuple] | None = None

    @property
    def nodes(self) -> int:
        """Worker count, presented as SimResult's process count."""
        return self.n_workers

    @property
    def cores_per_node(self) -> int:
        return 1

    @property
    def occupancy(self) -> np.ndarray:
        """Per-worker busy fraction in [0, 1]."""
        return self.busy / max(self.makespan, 1e-300)

    @property
    def achieved_gflops(self) -> float:
        """Modelled flops over real wall-clock (Gflop/s)."""
        return self.total_flops / max(self.makespan, 1e-300) / 1e9

    @property
    def speedup_vs_serial(self) -> float:
        """Aggregate busy time over makespan — parallel efficiency proxy."""
        return float(self.busy.sum()) / max(self.makespan, 1e-300)


def execute_graph(graph: TaskGraph, matrix: BandTLRMatrix, **kwargs):
    """:func:`execute_graph_parallel` at one inline worker."""
    return execute_graph_parallel(graph, matrix, n_workers=1, **kwargs)


def execute_graph_parallel(
    graph: TaskGraph,
    matrix: BandTLRMatrix,
    *,
    n_workers: int | None = None,
    rule: TruncationRule | None = None,
    use_pool: bool = True,
    scheduler: str = "priority",
    collect_trace: bool = False,
    backend=None,
    faults=None,
    recovery=None,
    checkpoint=None,
    resume: bool = False,
    _link=None,
) -> ExecutionReport:
    """Execute a (non-expanded) Cholesky task graph on ``matrix`` in place.

    Parameters
    ----------
    graph:
        Graph built by :func:`repro.runtime.graph.build_cholesky_graph`
        *without* ``recursive_split`` (nested sub-tasks operate on views
        the executor does not materialize; recursion is a simulator-side
        concern — numerically the whole-tile kernel is identical).
    matrix:
        The compressed matrix to factorize; mutated into its Cholesky
        factor (lower triangle), bitwise the reference loops' factor.
    n_workers:
        Worker count; defaults to ``os.cpu_count()``.  One worker runs
        inline on the calling thread.
    rule:
        Truncation rule for recompressions; defaults to the matrix's rule.
    use_pool:
        Re-associate recompression outputs with the shared memory pool
        (the Section VII-B dynamic-memory path; disable for
        pure-numerics runs).
    scheduler:
        Ready-queue policy, matching ``simulate(scheduler=...)``:
        ``"priority"`` (panel-ordered, critical-path promoting),
        ``"fifo"`` (become-ready order) or ``"lifo"`` (newest first).
    collect_trace:
        Record per-task ``(tid, worker, start, end)`` tuples in seconds
        relative to launch — consumable by ``obs.gantt`` and
        ``obs.write_chrome_trace`` exactly like a simulator trace.
    backend:
        Compression backend for GEMM recompressions; defaults to the
        matrix's backend.
    faults:
        Fault-injection source: a spec string (see
        :mod:`repro.testing.faults` for the grammar), a ``FaultPlan``, or
        a ready injector.  Implies the recovery engine.  Injection
        decisions depend only on (seed, task, attempt), never on
        scheduling, so chaos runs are reproducible across worker counts.
    recovery:
        A :class:`~repro.runtime.resilience.RecoveryPolicy`; ``None``
        with ``faults`` set uses the default policy.
    checkpoint:
        Checkpoint directory (or
        :class:`~repro.runtime.resilience.CheckpointConfig` /
        :class:`~repro.runtime.resilience.Checkpointer`) — the
        completed-panel frontier is persisted there at panel boundaries,
        after quiescing the workers.
    resume:
        Restore the latest checkpoint from ``checkpoint`` before
        executing; completed tasks are skipped.

    Returns
    -------
    ExecutionReport

    Raises
    ------
    SchedulingError
        On an invalid scheduler policy or an unsatisfiable (e.g. cyclic)
        graph: ready set empty, nothing in flight, tasks left.
    RuntimeSystemError
        On graph/matrix mismatch, an expanded graph, or when a task
        raised on a worker thread (the original exception is chained; at
        one inline worker it propagates unchanged).
    """
    if scheduler not in ("priority", "fifo", "lifo"):
        raise SchedulingError(
            f"scheduler must be 'priority', 'fifo' or 'lifo', got {scheduler!r}"
        )
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    check_positive_int("n_workers", n_workers)
    link = _link  # a rank's transport (module docstring); None in-process
    if link is None:
        _check_graph(graph, matrix)

    rule = rule or matrix.rule
    backend = backend if backend is not None else matrix.backend
    report = ExecutionReport(
        n_workers=n_workers, total_flops=graph.total_flops()
    )
    report.tracker.register_matrix(matrix)

    # --- resilience / checkpoint state --------------------------------
    manager = build_manager(faults, recovery)
    ckptr = as_checkpointer(checkpoint)
    rrep = None
    if manager is not None:
        rrep = manager.report
    elif ckptr is not None:
        rrep = ResilienceReport()
    report.resilience = rrep

    completed: set[tuple] = set() if link is None else set(link.restored)
    panels = {"done": 0, "since": 0, "due": False}
    if resume and ckptr is not None:
        ck = _restore_latest(ckptr, graph, matrix)
        if ck is not None:
            completed = set(ck.completed)
            panels["done"] = ck.panels_done
            report.tasks_resumed = rrep.tasks_resumed = len(completed)

    # --- dependency countdown state -----------------------------------
    # A rank runs the tasks it owns.  A producer on another rank releases
    # its consumers when its tile *arrives* (checkpointed or not: the
    # owner re-sends restored tiles), a local one when it commits.
    owned = graph.tasks if link is None else link.owned
    pending = [
        tid for tid in graph.tasks if tid in owned and tid not in completed
    ]
    indeg: dict[tuple, int] = {}
    succs: dict[tuple, list[tuple]] = {tid: [] for tid in graph.tasks}
    awaited: set[tuple] = set()  # remote producers not yet arrived
    panel_remaining: dict[int, int] = {}
    for tid in pending:
        task = graph.tasks[tid]
        sources = {
            e.src for e in task.deps
            if e.src not in (completed if e.src in owned else link.arrived)
        }
        indeg[tid] = len(sources)
        for src in sources:
            succs[src].append(tid)
            if src not in owned:
                awaited.add(src)
        panel_remaining[task.panel] = panel_remaining.get(task.panel, 0) + 1

    cond = threading.Condition()
    ready: list[tuple] = []  # heap of (key, tid)
    arrival_seq = 0

    def ready_key(tid: tuple) -> tuple:
        nonlocal arrival_seq
        arrival_seq += 1
        if scheduler == "fifo":
            return (arrival_seq,)
        if scheduler == "lifo":
            return (-arrival_seq,)
        return task_sort_key(graph.tasks[tid])

    def release(src: tuple) -> int:
        """``src``'s output exists (committed here, or arrived from its
        rank): count down its consumers; returns how many became ready."""
        awaited.discard(src)
        released = 0
        for succ in succs[src]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                heapq.heappush(ready, (ready_key(succ), succ))
                released += 1
        return released

    for tid in pending:
        if indeg[tid] == 0:
            heapq.heappush(ready, (ready_key(tid), tid))

    n_tasks = len(pending)
    state = {"executed": 0, "inflight": 0, "failed": None}

    # --- shared numerical state ---------------------------------------
    # One lock per stored tile, held while *writing* that tile.  Reads
    # need no lock: a task's input tiles were finalized by dependency
    # predecessors, and the dataflow chains guarantee no concurrent
    # writer exists while a reader runs.  Locking only the destination is
    # what lets GEMMs that share a panel tile update disjoint output
    # tiles concurrently.
    tile_locks = {ij: threading.Lock() for ij in matrix.tiles}
    pooled: dict[int, np.ndarray] = {}  # id -> factor array owned by pool
    stats_lock = threading.Lock()

    if manager is not None:
        manager.discard = lambda tile: _release_factors(
            tile, report, pooled, stats_lock
        )

    def run_task(tid: tuple) -> None:
        """Compute and commit one task under its write lock (through the
        recovery engine when one is active)."""
        task = graph.tasks[tid]

        def compute():
            return _compute_task(
                tid, task, matrix, rule, backend, report.counter
            )

        with tile_locks[task.out_tile]:
            out, recomp = (
                manager.run(task, matrix, compute)
                if manager is not None else compute()
            )
            _commit_task(
                tid, task, out, recomp, matrix, report, pooled,
                use_pool, stats_lock,
            )

    busy = np.zeros(n_workers)
    traces: list[list[tuple]] = [[] for _ in range(n_workers)]
    observing = obs.enabled()
    if observing:
        obs.graph_observed(graph, task_name)
    # Ranks time against the controller's launch so their traces share
    # one axis.
    t0 = time.perf_counter() if link is None else link.t0

    def worker(wid: int) -> None:
        while True:
            with cond:
                while True:
                    if state["failed"] is not None:
                        return
                    if panels["due"]:
                        if state["inflight"]:
                            cond.wait(timeout=0.05)
                            continue
                        # Quiesced: the tile state is a consistent
                        # dataflow cut; this worker writes the checkpoint
                        # while peers wait.
                        try:
                            ckptr.save(matrix, completed, panels["done"])
                        except Exception as exc:
                            state["failed"] = exc
                            cond.notify_all()
                            return
                        rrep.checkpoints_written += 1
                        panels["due"] = False
                        panels["since"] = 0
                        cond.notify_all()
                    if ready:
                        _, tid = heapq.heappop(ready)
                        state["inflight"] += 1
                        if observing:
                            obs.sample("ready_queue_depth", len(ready))
                        break
                    if not state["inflight"]:
                        if awaited:
                            # A rank with inputs still to come: block on
                            # the inbox (which checks stop and deadline)
                            # instead of calling it a deadlock.
                            for src in link.receive(block=True):
                                release(src)
                            continue
                        # Nothing ready and nothing running: the run is
                        # complete — or, with tasks left, deadlocked (the
                        # caller raises).  Either way no work will come.
                        cond.notify_all()
                        return
                    cond.wait(timeout=0.05)
            start = time.perf_counter() - t0
            task = graph.tasks[tid]
            try:
                if observing:
                    with obs.span(
                        task_name(tid),
                        "task",
                        worker=wid,
                        kernel=task.kernel.value,
                        flops=task.flops,
                    ):
                        run_task(tid)
                else:
                    run_task(tid)
            except BaseException as exc:
                # Hand the failure to the caller.  KeyboardInterrupt /
                # SystemExit additionally drain the ready queue so peers
                # stop picking work before the interrupt is re-raised.
                with cond:
                    if state["failed"] is None:
                        state["failed"] = exc
                    if not isinstance(exc, Exception):
                        ready.clear()
                    state["inflight"] -= 1
                    cond.notify_all()
                return
            end = time.perf_counter() - t0
            busy[wid] += end - start
            if collect_trace:
                traces[wid].append((tid, wid, start, end))
            with cond:
                state["inflight"] -= 1
                state["executed"] += 1
                completed.add(tid)
                panel = task.panel
                panel_remaining[panel] -= 1
                closed = panel_remaining[panel] == 0
                if closed:
                    _drop_inverse(matrix, panel)
                if link is not None:
                    # Tile to its consumer ranks; on a closed panel the
                    # frontier shard to the controller, which writes the
                    # checkpoints of a distributed run.
                    link.committed(tid, completed, closed)
                elif closed:
                    panels["done"] += 1
                    panels["since"] += 1
                    if (
                        ckptr is not None
                        and panels["since"] >= ckptr.config.every
                        and state["executed"] < n_tasks
                    ):
                        panels["due"] = True
                released = release(tid)
                if awaited:  # keep arrivals and tree forwards moving
                    for src in link.receive(block=False):
                        released += release(src)
                if observing and released:
                    obs.sample("ready_queue_depth", len(ready))
                if released or panels["due"] or not state["inflight"]:
                    cond.notify_all()

    try:
        if n_workers == 1:
            worker(0)
        else:
            threads = [
                threading.Thread(
                    target=worker, args=(w,), name=f"repro-worker-{w}"
                )
                for w in range(n_workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        if manager is not None:
            manager.close()

    report.makespan = time.perf_counter() - t0
    report.busy = busy
    report.tasks_executed = state["executed"]
    if observing:
        obs.gauge_set("makespan_s", report.makespan, executor="parallel")
        obs.counter_add(
            "tasks_executed", report.tasks_executed, executor="parallel"
        )
        for wid in range(n_workers):
            obs.gauge_set(
                "worker_occupancy",
                float(busy[wid]) / max(report.makespan, 1e-300),
                worker=str(wid),
            )
        obs.pool_observed(report.pool.stats, pool="executor")
        obs.pool_observed(
            get_backend(backend).workspace_pool_stats, pool="workspace"
        )
    if collect_trace:
        report.trace = sorted(
            (rec for per_worker in traces for rec in per_worker),
            key=lambda r: (r[1], r[2]),
        )

    failed = state["failed"]
    if failed is not None:
        if not isinstance(failed, Exception):
            # Clean cancellation: no task is running, so every buffer
            # the pool still considers live can be returned before the
            # interrupt continues up the stack.
            with stats_lock:
                leaked = list(pooled.values())
                pooled.clear()
            for arr in leaked:
                report.pool.release(arr)
        if n_workers == 1 or not isinstance(failed, Exception):
            raise failed
        raise RuntimeSystemError(
            f"worker failed while executing the graph: {failed}"
        ) from failed
    if state["executed"] != n_tasks:
        raise SchedulingError(
            f"execution deadlocked: {state['executed']} of {n_tasks} tasks "
            "completed with none ready or in flight (cyclic graph?)"
        )
    if ckptr is not None and state["executed"]:
        # Final checkpoint: resuming a finished run is a no-op.
        ckptr.save(matrix, completed, panels["done"])
        rrep.checkpoints_written += 1
    return report


def _check_graph(graph, matrix) -> None:
    """Reject a graph that was not built, unexpanded, for ``matrix``."""
    if graph.ntiles != matrix.ntiles:
        raise RuntimeSystemError(
            f"graph is for NT={graph.ntiles} but the matrix has NT={matrix.ntiles}"
        )
    if graph.band_size != matrix.band_size:
        raise RuntimeSystemError(
            f"graph band_size={graph.band_size} does not match "
            f"matrix band_size={matrix.band_size}"
        )
    for tid, task in graph.tasks.items():
        if tid != _canonical_tid(task):
            raise RuntimeSystemError(
                "executor received an expanded graph; build it without "
                "recursive_split"
            )


def _restore_latest(ckptr, graph, matrix):
    """Load the latest checkpoint (if any) and restore its tiles into
    ``matrix``; returns the :class:`CheckpointState` or ``None``."""
    ck = ckptr.load_latest()
    if ck is not None:
        ckptr.validate_against(graph, matrix, ck)
        for ij, tile in ck.matrix.tiles.items():
            matrix.set_tile(*ij, tile)
    return ck


def _drop_inverse(matrix, k: int) -> None:
    """Panel ``k`` closed in this process: no TRSM is left to read the
    ``L⁻¹`` its POTRF left on the diagonal tile (a rank that never held
    that tile has nothing to drop)."""
    try:
        matrix.tile(k, k).inverse = None
    except RuntimeSystemError:
        pass


def _gemm_operands(task, matrix) -> tuple[list, list]:
    """The ``(m, j)`` and ``(n, j)`` tiles of every panel ``j`` a GEMM
    task's edges name, in panel order: one pair in the right-looking
    graph, all ``n`` of them for a fused low-rank destination."""
    m, n = task.out_tile
    panels = sorted(
        {e.src[2] for e in task.deps if e.src[0] is TaskKind.TRSM}
    )
    return (
        [matrix.tile(m, j) for j in panels],
        [matrix.tile(n, j) for j in panels],
    )


def _compute_task(tid, task, matrix, rule, backend, counter):
    """Run one task's kernel; returns ``(out, recomp)`` without committing.

    ``out`` is the produced tile for TRSM/GEMM and ``None`` for the
    in-place POTRF/SYRK.  No pool or tracker side effects happen here —
    :func:`_commit_task` applies them only after the (possibly
    fault-injected) attempt is validated, so failed attempts never leak
    pool buffers.
    """
    kind = task.kind
    if kind is TaskKind.POTRF:
        (_, k) = tid
        hcore.potrf_dense(
            matrix.tile(k, k), counter=counter, tile_index=(k, k)
        )
        return None, None
    if kind is TaskKind.TRSM:
        (_, m, k) = tid
        out = hcore.trsm_auto(
            matrix.tile(k, k), matrix.tile(m, k), counter=counter
        )
        return out, None
    if kind is TaskKind.SYRK:
        (_, n, k) = tid
        hcore.syrk_auto(
            matrix.tile(n, k), matrix.tile(n, n), counter=counter
        )
        return None, None
    (_, m, n, _) = tid
    a, b = _gemm_operands(task, matrix)
    c = matrix.tile(m, n)
    if not isinstance(c, DenseTile):
        # Every panel product at once, one rounding (of a pending tile:
        # its one compression).
        out, _, recomp = hcore.gemm_auto(
            a, b, c, rule,
            counter=counter, backend=backend, tile_index=(m, n),
        )
        return out, recomp
    # A dense destination (on the band, or densified) is updated one
    # panel at a time, in panel order: the reference loops' bits.
    for aj, bj in zip(a, b):
        hcore.gemm_auto(aj, bj, c, rule, counter=counter)
    return c, None


def _release_factors(tile, report, pooled, stats_lock, keep=()) -> None:
    """Return a displaced or discarded tile's pool-owned factors to the
    free lists (``keep`` holds buffer ids the new tile still references)."""
    if isinstance(tile, LowRankTile):
        for arr in (tile.u, tile.v):
            if id(arr) in keep:
                continue
            with stats_lock:
                owned = pooled.pop(id(arr), None) is not None
            if owned:
                report.pool.release(arr)


def _commit_task(
    tid, task, out, recomp, matrix, report, pooled, use_pool, stats_lock
) -> None:
    """Publish a validated task result: tile store, pool, tracker.

    Shared by the in-process core and the per-rank loop of the
    distributed executor (``report`` carries the same accounting surface
    in both; ``pooled`` maps buffer id -> array for the factors currently
    owned by the pool, guarded by ``stats_lock``).
    """
    kind = task.kind
    if kind in (TaskKind.POTRF, TaskKind.SYRK):
        return  # in-place kernels already updated the stored tile
    dest = task.out_tile
    # Any out-of-place commit displaces the stored tile; factors the pool
    # still owns there must go back to the free lists (a TRSM overwriting
    # a GEMM-recompressed tile would otherwise leak them — the chaos
    # suite's pool audit checks exactly this).  Factors the new tile still
    # references stay live: trsm_lr only solves V and reuses the U array.
    old = matrix.tile(*dest)
    if out is not old:
        kept = (
            {id(out.u), id(out.v)} if isinstance(out, LowRankTile) else ()
        )
        _release_factors(old, report, pooled, stats_lock, keep=kept)
    if kind is TaskKind.GEMM and recomp is not None:
        bm, bn = out.shape
        # Transient stacked factors existed during recompression.
        report.tracker.transient((bm + bn) * recomp.rank_before)
        if use_pool:
            # Re-associate the fresh exact-size factors with the pool —
            # Section VII-B's two-stage designation.
            if isinstance(out, LowRankTile) and out.rank > 0:
                out = LowRankTile(
                    report.pool.take(out.u), report.pool.take(out.v)
                )
                with stats_lock:
                    pooled[id(out.u)] = out.u
                    pooled[id(out.v)] = out.v
        with stats_lock:
            if recomp.grew:
                report.rank_growth_events += 1
            report.max_rank_seen = max(report.max_rank_seen, recomp.rank_after)
    matrix.set_tile(*dest, out)
    if kind is TaskKind.GEMM:
        report.tracker.allocate_tile(dest, out)


def _canonical_tid(task) -> tuple:
    """The tile-level id a task of this kind/indices should carry."""
    if task.kind is TaskKind.POTRF:
        return (TaskKind.POTRF, task.out_tile[0])
    if task.kind is TaskKind.TRSM:
        return (TaskKind.TRSM, *task.out_tile)
    if task.kind is TaskKind.SYRK:
        return (TaskKind.SYRK, task.out_tile[0], task.panel)
    return (TaskKind.GEMM, *task.out_tile, task.panel)
