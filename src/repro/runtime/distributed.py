"""Multi-process distributed executor: real numerics on SPMD ranks.

The in-process core (:mod:`repro.runtime.executor`) shares one address
space; the simulator (:mod:`repro.runtime.simulator`) only *predicts*
what a distributed run would do.  This module closes the loop: it runs
the same :class:`~repro.runtime.graph.TaskGraph` on ``N`` OS processes,
places tiles with a real :class:`~repro.distribution.Distribution`
(the paper's hybrid band/off-band layout by default), classifies every
dataflow edge LOCAL vs REMOTE exactly like
:func:`repro.runtime.dataflow.classify_dataflow`, and moves remote tiles
over explicit send/recv channels with binomial broadcast trees for the
panel factors (POTRF and TRSM outputs) — the Section VII-A communication
pattern, executed instead of simulated.

Execution model (owner computes, dataflow): every rank is *one inline
worker of the execution core* — the same dependency-driven loop, ready
set, scheduler policy, recovery engine, pool and accounting as an
in-process run — restricted to the tasks whose output tile it owns.
This module supplies only the link (:class:`_RankLink`) for what a rank
does differently:

* a task's input is LOCAL (released by the commit of an earlier task on
  the same rank — the PTG chain edges) or REMOTE, released when the
  producer's tile *arrives* in the rank's inbox;
* a rank with nothing ready and arrivals outstanding blocks on its inbox,
  woken by the controller's stop and bounded by the run's deadline — an input
  that never arrives is a typed error, never a hang;
* a rank that commits a task whose output has remote consumers sends
  the tile once per consumer rank, routed down a binomial tree whose
  interior nodes are consumer ranks (each forwards to its subtree),
  ships a tile to the controller the moment its final write commits (the
  gather overlaps the run), and on a closed panel its frontier shard —
  all over one pickled pipe per (sender, receiver) pair, so a process
  that dies mid-message is EOF on its own pipes, never a peer's hang.

Correctness rests on a property of the Cholesky PTG under
owner-computes placement: every remote edge originates from a POTRF or
TRSM task, and those outputs are the *final* writes to their tile
coordinates.  Remote tiles are therefore immutable snapshots — each
consumer rank receives exactly one version per coordinate, reads it
read-only, and never owns a write to it.  No rank follows a prescribed
task order; as for threads, determinism rests on the total order of
writes per tile (the LOCAL chains) and deterministic kernels, so the
factor is bitwise identical to the in-process core (and to the oracle
loops of :mod:`repro.testing.reference`) for any rank count.

Resilience carries over wholesale: the core on each rank runs its tasks
under its own recovery engine (fault draws depend only on
(seed, task, attempt), so chaos runs stay deterministic across rank
counts); checkpoints are coordinated by the controller, which merges
per-rank frontier shards into standard
:class:`~repro.runtime.resilience.Checkpointer` archives that the other
executors can resume, and vice versa.  If a rank process dies mid-run,
the controller relaunches the run from the latest checkpoint (or from
scratch — streamed tiles reach its matrix only once a run completes)
and counts a recovery.  A task exception on a rank crosses the process
boundary as the thread boundary is crossed: wrapped in
:class:`RuntimeSystemError` with the original exception chained.

The report *is* an :class:`~repro.runtime.executor.ExecutionReport`
(one rank per lane; the ranks' counters, pool statistics and tracker
peaks merged), so gantt, occupancy summaries and Chrome-trace export
consume distributed runs unchanged, and adds the realized communication
volume: :class:`~repro.runtime.simulator.CommStats` under the
simulator's counting conventions (directly comparable with
``simulate().comm``) plus a realized
:class:`~repro.runtime.dataflow.DataflowBreakdown` that must equal
``classify_dataflow(graph, dist)`` on a fresh run — a tested
reconciliation, not an assumption.

Under an active :mod:`repro.obs` observation the controller replays the
run into it: every task span on its rank's ``rank-R`` lane, and one
category-``"comm"`` span per wire hop, from the send to the arrival, on
a ``rank-S->rank-D`` lane.  The ranks time everything against the
controller's launch (``_RankLink.t0``), so the one trace needs no clock
alignment.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import pickle
import queue as _queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_readable

import numpy as np

from .. import obs
from ..distribution.distributions import Distribution, default_distribution
from ..linalg.compression import TruncationRule
from ..linalg.flops import FlopCounter
from ..linalg.tiles import LowRankTile
from ..matrix.memory import MemoryTracker
from ..matrix.tlr_matrix import BandTLRMatrix
from ..utils.exceptions import ConfigurationError, RuntimeSystemError
from .dataflow import DataflowBreakdown
from .executor import (
    ExecutionReport,
    _check_graph,
    _restore_latest,
    execute_graph_parallel,
)
from .graph import TaskGraph
from .resilience import ResilienceReport, as_checkpointer
from .simulator import CommStats
from .task import TaskId, TaskKind, task_name

__all__ = [
    "DistributedExecutionReport",
    "binomial_children",
    "execute_graph_distributed",
    "placement_of",
]


def binomial_children(dests: list[int]) -> list[tuple[int, list[int]]]:
    """Split broadcast destinations into binomial ``(child, subtree)`` pairs.

    The sender transmits once per returned pair; each child forwards to
    its subtree recursively, so an ``n``-destination broadcast costs the
    root ``O(log n)`` sends and completes in ``O(log n)`` hops — the
    binomial trees PaRSEC uses for panel broadcasts.
    """
    out: list[tuple[int, list[int]]] = []
    rest = list(dests)
    while rest:
        mid = (len(rest) + 1) // 2
        out.append((rest[0], rest[1:mid]))
        rest = rest[mid:]
    return out


def placement_of(graph: TaskGraph, dist: Distribution) -> dict[TaskId, int]:
    """Owner-computes task placement: task -> rank owning its output tile."""
    return {tid: dist.owner(*t.out_tile) for tid, t in graph.tasks.items()}


#: The :class:`MemoryTracker` figures a rank reports and the controller sums.
_TRACKED = ("current_elements", "peak_elements", "reallocations")


def _add_fields(into, part, names=None) -> None:
    """``into.f += part.f`` over ``part``'s dataclass fields (or ``names``)."""
    for name in names or [f.name for f in dataclasses.fields(part)]:
        setattr(into, name, getattr(into, name) + getattr(part, name))


def _tile_nbytes(tile) -> int:
    """Actual factor bytes a tile occupies on the wire."""
    if isinstance(tile, LowRankTile):
        return tile.u.nbytes + tile.v.nbytes
    return tile.data.nbytes


def _remote_dest_ranks(graph, placement, tid, completed) -> list[int]:
    """Ranks owning a not-yet-completed remote consumer of ``tid``."""
    me = placement[tid]
    dests = {
        placement[e.dst]
        for e in graph.succs.get(tid, [])
        if placement[e.dst] != me and e.dst not in completed
    }
    return sorted(dests)


class _RankStore:
    """A rank's private tile store, quacking like the matrix for kernels.

    ``tiles`` holds the tiles this rank owns — all it ever writes,
    accounts, checkpoints or ships to the controller; ``remote`` the
    read-only snapshots received from peers.  A missing tile is a
    protocol error, not a KeyError.
    """

    def __init__(self, tiles: dict[tuple[int, int], object]):
        self.tiles = tiles
        self.remote: dict[tuple[int, int], object] = {}

    def tile(self, i: int, j: int):
        tile = self.tiles.get((i, j), self.remote.get((i, j)))
        if tile is None:
            raise RuntimeSystemError(
                f"tile ({i}, {j}) is neither owned by nor received on "
                "this rank — placement/dataflow mismatch"
            )
        return tile

    def set_tile(self, i: int, j: int, tile) -> None:
        self.tiles[(i, j)] = tile


@dataclass
class _RankConfig:
    """Everything one rank needs; must stay picklable for spawn starts."""

    rank: int
    graph: TaskGraph
    dist: Distribution
    tiles: dict[tuple[int, int], object]
    rule: TruncationRule
    use_pool: bool
    completed: frozenset
    resend: tuple
    faults: object
    recovery: object
    ckpt_every: int | None
    t0_wall: float
    deadline: float | None
    attempt: int
    chaos_kill: tuple[int, int] | None
    observing: bool


class _Aborted(Exception):
    """Internal: the controller said stop; exit quietly."""


class _PipeSender:
    """``put`` onto one pipe: pickled here, written by a feeder thread, so
    two ranks sending each other tiles larger than the pipe buffer cannot
    deadlock, and a send stalls the task loop only while ``depth``
    messages wait (0: never)."""

    def __init__(self, conn, depth: int = 0):
        self._q = _queue.Queue(depth)
        self._thread = threading.Thread(
            target=self._feed, args=(conn,), daemon=True
        )
        self._thread.start()

    def put(self, msg) -> None:
        self._q.put(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL))

    def _feed(self, conn) -> None:
        for buf in iter(self._q.get, None):
            try:
                conn.send_bytes(buf)
            except OSError:  # the reader is gone (stopped or dead)
                pass

    def flush(self) -> None:
        self._q.put(None)
        self._thread.join()


class _PipeInbox:
    """``get`` over one pipe per sender: a sender that died mid-message
    is EOF on its own pipe and is dropped (a truncated message in one
    queue shared by all senders hung its reader instead)."""

    def __init__(self, conns):
        self._conns = list(conns)

    def get(self, timeout: float):
        for conn in wait_readable(self._conns, timeout):
            try:
                return conn.recv()
            except (EOFError, OSError):
                self._conns.remove(conn)
        raise _queue.Empty


def _own_pipe_ends(pipes, me: int) -> tuple[list, dict]:
    """Process ``me``'s ends of ``pipes[sender, receiver]``: what it
    reads, and what it writes by receiver.  Every other copy is closed —
    a dead writer is EOF only once nobody else holds its write end."""
    for (s, d), (recv_end, send_end) in pipes.items():
        if d != me:
            recv_end.close()
        if s != me:
            send_end.close()
    return (
        [ends[0] for (_, d), ends in pipes.items() if d == me],
        {d: ends[1] for (s, d), ends in pipes.items() if s == me},
    )


def _rank_process(cfg: _RankConfig, pipes) -> None:
    """Process entry: the rank on its own pipe ends.  The controller is
    process ``nprocs``; the rank runs at most four messages ahead of it
    (a frontier shard copies every owned tile: a checkpointed run must
    neither hoard them nor outrun its checkpoints)."""
    # A forked rank holds a copy of the controller's observation and
    # writes nothing into it: the controller replays the rank's trace.
    # (No lock: another thread of the controller may have held it.)
    obs._active.clear()
    inbox, outbox = _own_pipe_ends(pipes, cfg.rank)
    results = _PipeSender(outbox.pop(cfg.dist.nprocs), depth=4)
    outboxes = {d: _PipeSender(end) for d, end in outbox.items()}
    try:
        _rank_main(cfg, _PipeInbox(inbox), outboxes, results.put)
    finally:
        results.flush()


def _rank_main(cfg: _RankConfig, inbox, outboxes, emit) -> None:
    """Top-level worker body (one per rank; process or thread).

    Communicates only through the objects it was handed — ``inbox.get``,
    ``outboxes[rank].put`` and ``emit`` (one message to the controller)
    — so the same function runs on pipes in real processes
    (:func:`_rank_process`) and on ``queue.Queue`` in the in-process
    harness the tests use.
    """
    link = _RankLink(cfg, inbox, outboxes, emit)
    try:
        payload = _rank_body(link)
        emit(("done", cfg.rank, payload))
        # Keep forwarding until the controller's stop: a peer may still
        # route a (defensive) forward through us though our tasks are done.
        while True:
            link.receive(block=True)
    except _Aborted:
        pass
    except BaseException as exc:
        # The exception itself crosses to the controller when it pickles
        # (so the caller can chain it); its traceback text always does.
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = None
        emit(("error", cfg.rank, exc, traceback.format_exc()))


class _RankLink:
    """What a rank does differently, as the execution core sees it.

    The core (:func:`~repro.runtime.executor.execute_graph_parallel`)
    asks the link which tasks the rank owns and which inputs must still
    *arrive* (``owned``, ``restored``, ``arrived``), blocks on or polls
    the inbox through it (``receive``), and reports every commit to it
    (``committed``: send the tile to its consumer ranks, ship a frontier
    shard on a closed panel).  ``t0`` is the ``perf_counter`` reading of
    the controller's launch, so every rank's trace shares one time axis.

    The link also keeps the rank's communication accounting under the
    simulator's conventions: logical messages/bytes are counted once per
    (producer task, consumer rank) at the producer; wire counts follow
    the actual tree hops with actual factor sizes.
    """

    def __init__(self, cfg: _RankConfig, inbox, outboxes, emit):
        self.cfg, self.store = cfg, _RankStore(dict(cfg.tiles))
        self.inbox, self.outboxes, self.emit = inbox, outboxes, emit
        self.placement = placement_of(cfg.graph, cfg.dist)
        self.owned = {
            tid for tid, r in self.placement.items() if r == cfg.rank
        }
        # The restored checkpoint frontier.  Consumers in it are not
        # (re-)sent to; it never grows during the run.
        self.restored = cfg.completed
        # Remote producers whose tiles are here (in ``store.remote``).
        self.arrived: set[TaskId] = set()
        self.t0 = time.perf_counter() - (time.time() - cfg.t0_wall)
        self.comm = CommStats()
        self.wire_messages = self.wire_bytes = 0
        self.df_edges: dict[tuple, int] = {}
        self.df_bytes: dict[tuple, int] = {}
        # One record per wire hop while the controller observes, on the
        # ``t0`` axis: ``(task, dst, t)`` sent, ``(task, t)`` arrived.
        self.sends: list[tuple] = []
        self.recvs: list[tuple] = []
        self.kill_budget = None
        if cfg.chaos_kill is not None and cfg.attempt == 0 and \
                cfg.chaos_kill[0] == cfg.rank:
            self.kill_budget = int(cfg.chaos_kill[1])

    def _post(self, src_tid, ij, tile, dests: list[int]) -> None:
        """Send ``tile`` down the binomial tree over ``dests``."""
        for child, sub in binomial_children(dests):
            if self.cfg.observing:
                self.sends.append(
                    (src_tid, child, time.perf_counter() - self.t0)
                )
            self.outboxes[child].put(("tile", src_tid, ij, tile, sub))
            self.wire_messages += 1
            self.wire_bytes += _tile_nbytes(tile)

    def receive(self, block: bool) -> list[TaskId]:
        """Drain the inbox (``block``: wait up to 0.2 s for a first
        message).  Arriving tiles are stored and forwarded down their
        subtrees; returns their producer tasks.  The controller's stop
        raises ``_Aborted``; an empty inbox checks the run's deadline."""
        cfg = self.cfg
        got: list[TaskId] = []
        while True:
            try:
                msg = self.inbox.get(timeout=0.2 if block else 0)
            except _queue.Empty:
                if cfg.deadline is not None and time.time() > cfg.deadline:
                    raise RuntimeSystemError(
                        f"rank {cfg.rank} exceeded the "
                        f"{cfg.deadline - cfg.t0_wall:.1f}s "
                        "distributed-execution deadline"
                    ) from None
                return got
            block = False
            if msg[0] == "stop":
                raise _Aborted()
            _, src_tid, ij, tile, subtree = msg
            if cfg.observing:
                self.recvs.append((src_tid, time.perf_counter() - self.t0))
            self._post(src_tid, ij, tile, list(subtree))
            self.store.remote[ij] = tile
            self.arrived.add(src_tid)
            got.append(src_tid)

    def send_output(self, tid: TaskId) -> None:
        """Send ``tid``'s (final) output tile once per consumer rank."""
        graph, me = self.cfg.graph, self.cfg.rank
        dests = _remote_dest_ranks(graph, self.placement, tid, self.restored)
        if not dests:
            return
        out_tile = graph.tasks[tid].out_tile
        elements = next(
            e.elements for e in graph.succs[tid]
            if self.placement[e.dst] != me
        )
        self.comm.messages += len(dests)
        self.comm.bytes_sent += elements * 8 * len(dests)
        if len(dests) > 1:
            self.comm.broadcasts += 1
        self._post(tid, out_tile, self.store.tile(*out_tile), dests)

    def committed(self, tid: TaskId, completed: set, panel_closed: bool):
        """The core committed ``tid``: account its realized dataflow,
        send its output on (a POTRF/TRSM output is its tile's final
        version: to the controller too), and on a closed panel ship the
        frontier shard the controller merges into a global checkpoint."""
        cfg = self.cfg
        if self.kill_budget is not None:
            self.kill_budget -= 1
            if self.kill_budget <= 0:
                os._exit(17)  # simulated rank crash, no cleanup
        task = cfg.graph.tasks[tid]
        for e in task.deps:
            kinds = (cfg.graph.tasks[e.src].kind, task.kind)
            local = e.src in self.owned
            key = (*kinds, "local" if local else "remote")
            self.df_edges[key] = self.df_edges.get(key, 0) + 1
            if local:
                self.comm.local_edges += 1
            else:
                self.comm.remote_edges += 1
                self.df_bytes[kinds] = (
                    self.df_bytes.get(kinds, 0) + e.elements * 8
                )
        if task.kind in (TaskKind.POTRF, TaskKind.TRSM):
            ij = task.out_tile
            self.emit(("final", cfg.rank, ij, self.store.tile(*ij)))
        self.send_output(tid)
        if panel_closed and cfg.ckpt_every is not None:
            # The owned-tile state and completed set are a consistent
            # per-rank prefix.  The tiles MUST be deep-copied: the inline
            # harness hands these very objects to the controller, and the
            # in-place POTRF/SYRK kernels would otherwise mutate tiles
            # after the emit, desynchronizing the shard's tile state from
            # its completed set.
            self.emit(("panel", cfg.rank, task.panel, {
                "tiles": {ij: t.copy() for ij, t in self.store.tiles.items()},
                "completed": list(completed),
            }))


def _rank_body(link: _RankLink) -> dict:
    cfg = link.cfg
    # Resume: re-publish the final tile versions that restored-away
    # consumers on other ranks still need (the checkpoint frontier is a
    # per-rank-consistent cut; remote payloads are final tile versions,
    # so resending from restored state is always valid).
    for tid in cfg.resend:
        link.send_output(tid)

    report = execute_graph_parallel(
        cfg.graph, link.store, n_workers=1, rule=cfg.rule,
        use_pool=cfg.use_pool, collect_trace=True, faults=cfg.faults,
        recovery=cfg.recovery, _link=link,
    )
    # The report's accounting objects hold locks and pool buffers;
    # their plain, picklable contents go back to the controller.
    counter, tracker = FlopCounter(), MemoryTracker()
    counter.merge(report.counter)
    _add_fields(tracker, report.tracker, _TRACKED)
    return {
        "counter": counter,
        "pool_stats": report.pool.stats,
        "tracker": tracker,
        "rank_growth_events": report.rank_growth_events,
        "max_rank_seen": report.max_rank_seen,
        "tasks_executed": report.tasks_executed,
        "busy": float(report.busy[0]),
        "trace": [(tid, cfg.rank, s, e) for tid, _, s, e in report.trace],
        "resilience": report.resilience,
        "comm": link.comm,
        "wire": (link.wire_messages, link.wire_bytes),
        "df_edges": link.df_edges,
        "df_bytes": link.df_bytes,
        "sends": link.sends,
        "recvs": link.recvs,
    }


@dataclass
class DistributedExecutionReport(ExecutionReport):
    """An :class:`~repro.runtime.executor.ExecutionReport` (one rank per
    lane: ``n_workers = nodes =`` the rank count; counters, pool
    statistics and tracker figures are the ranks' summed — the pool and
    tracker peaks are therefore the capacity all address spaces need
    together) plus the realized communication volume.

    Attributes
    ----------
    comm:
        Realized LOCAL/REMOTE edge counts, logical messages/bytes and
        broadcast count under the simulator's conventions — directly
        comparable with ``simulate(...).comm``.
    dataflow:
        Realized per-(src kind, dst kind, locality) edge breakdown; on a
        fresh (non-resumed) run it equals
        ``classify_dataflow(graph, dist)`` exactly.
    wire_messages / wire_bytes:
        Actual tree-hop message count and payload bytes (measured factor
        sizes, including forwarding hops) — the realized counterpart of
        the modelled ``comm.bytes_sent``.
    placement:
        Task id -> owning rank, as executed.
    rank_restarts:
        Times the controller relaunched the run after losing a rank
        process.
    launch_s / run_s / gather_s:
        The controller's wall-clock, partitioned: call to first task
        start, first task start to last task end, last task end to
        return; they sum to ``makespan``.
    """

    comm: CommStats = field(default_factory=CommStats)
    dataflow: DataflowBreakdown = field(default_factory=DataflowBreakdown)
    wire_messages: int = 0
    wire_bytes: int = 0
    placement: dict = field(default_factory=dict)
    rank_restarts: int = 0
    launch_s: float = 0.0
    run_s: float = 0.0
    gather_s: float = 0.0


def _leading_panels_done(panel_tasks, union_completed) -> int:
    done = 0
    for p in sorted(panel_tasks):
        if panel_tasks[p] <= union_completed:
            done += 1
        else:
            break
    return done


class _RankDied(Exception):
    def __init__(self, ranks):
        self.ranks = ranks
        super().__init__(f"rank process(es) died: {ranks}")


def execute_graph_distributed(
    graph: TaskGraph,
    matrix: BandTLRMatrix,
    *,
    n_ranks: int | None = None,
    distribution: Distribution | None = None,
    rule: TruncationRule | None = None,
    use_pool: bool = True,
    collect_trace: bool = False,
    faults=None,
    recovery=None,
    checkpoint=None,
    resume: bool = False,
    timeout_s: float | None = 300.0,
    max_restarts: int = 2,
    _chaos_kill: tuple[int, int] | None = None,
    _inline: bool = False,
) -> DistributedExecutionReport:
    """Execute a Cholesky task graph on ``n_ranks`` OS processes.

    Parameters mirror :func:`~repro.runtime.executor
    .execute_graph_parallel` where they overlap; the differences:

    Parameters
    ----------
    n_ranks:
        Rank (process) count; defaults to the distribution's size, or 2.
    distribution:
        Tile-to-rank placement; defaults to :func:`~repro.distribution
        .default_distribution` — the paper's hybrid band layout on the
        process grid chosen from the graph's per-panel modelled work.
        ``distribution.nprocs`` must equal ``n_ranks``.
    faults / recovery:
        Per-rank retry/rollback engine; ``faults`` must be a spec string
        or :class:`~repro.testing.faults.FaultPlan` (a live injector
        holds unpicklable state).
    checkpoint / resume:
        Standard checkpoint archives, written by the controller from
        per-rank frontier shards; interchangeable with the thread
        executor's checkpoints.
    timeout_s:
        Wall-clock deadline for the whole execution (``None`` disables);
        a stuck rank fails the run instead of hanging it.
    max_restarts:
        Relaunch budget when a rank process dies mid-run: the run
        restarts from the latest checkpoint when one exists (final
        tiles stream to the controller during a run but reach ``matrix``
        only when the run completes, so a from-scratch restart is
        equally safe).
    _chaos_kill:
        Test hook ``(rank, after_n_tasks)``: that rank hard-exits after
        committing N tasks on the first attempt — exercises the
        controller's lost-rank recovery path.
    _inline:
        Run ranks on threads with plain queues instead of processes
        and pipes
        (identical code path; used by tests so coverage instruments the
        worker loop, and per-rank tile stores are deep-copied to
        preserve address-space isolation semantics).

    Returns
    -------
    DistributedExecutionReport
    """
    if distribution is None:
        distribution = default_distribution(
            graph, 2 if n_ranks is None else n_ranks
        )
    elif n_ranks not in (None, distribution.nprocs):
        raise ConfigurationError(
            f"distribution targets {distribution.nprocs} ranks but "
            f"n_ranks={n_ranks}"
        )
    n_ranks = distribution.nprocs
    _check_graph(graph, matrix)
    if faults is not None and not isinstance(faults, str):
        from ..testing.faults import FaultPlan

        if not isinstance(faults, FaultPlan):
            raise ConfigurationError(
                "the distributed executor needs faults as a spec string "
                "or FaultPlan (live injectors cannot cross processes)"
            )
    if _chaos_kill is not None and _inline:
        raise ConfigurationError(
            "_chaos_kill requires real processes (_inline=False)"
        )

    rule = rule or matrix.rule
    placement = placement_of(graph, distribution)
    ckptr = as_checkpointer(checkpoint)

    report = DistributedExecutionReport(
        n_workers=n_ranks, total_flops=graph.total_flops(),
        placement=placement,
    )
    rrep = ResilienceReport() if (
        ckptr is not None or faults is not None or recovery is not None
        or _chaos_kill is not None
    ) else None
    report.resilience = rrep

    panel_tasks: dict[int, set] = {}
    for tid, task in graph.tasks.items():
        panel_tasks.setdefault(task.panel, set()).add(tid)

    observing = obs.enabled()
    if observing:
        obs.graph_observed(graph, task_name)

    restarts = 0
    while True:
        completed0: set = set()
        if (resume or restarts) and ckptr is not None:
            ck = _restore_latest(ckptr, graph, matrix)
            if ck is not None:
                completed0 = set(ck.completed)
        resend: dict[int, list] = {r: [] for r in range(n_ranks)}
        for tid in completed0:
            if _remote_dest_ranks(graph, placement, tid, completed0):
                resend[placement[tid]].append(tid)

        try:
            _run_once(
                graph, matrix, distribution, placement, n_ranks,
                completed0, resend, rule, use_pool,
                faults, recovery, ckptr, panel_tasks, rrep, report,
                timeout_s, _chaos_kill, restarts, _inline,
            )
        except _RankDied as died:
            restarts += 1
            if restarts > max_restarts:
                raise RuntimeSystemError(
                    f"distributed execution lost rank(s) {died.ranks} and "
                    f"exhausted {max_restarts} restarts"
                ) from died
            if rrep is not None:
                rrep.recoveries += 1
            report.rank_restarts = restarts
            obs.counter_add("rank_restarted")
            continue
        break

    report.tasks_resumed = len(completed0)
    if rrep is not None:
        rrep.tasks_resumed = max(rrep.tasks_resumed, len(completed0))

    if ckptr is not None and report.tasks_executed:
        ckptr.save(matrix, set(graph.tasks), len(panel_tasks))
        if rrep is not None:
            rrep.checkpoints_written += 1

    if not collect_trace:
        report.trace = None

    if observing:
        obs.gauge_set("makespan_s", report.makespan, executor="distributed")
        obs.counter_add(
            "tasks_executed", report.tasks_executed, executor="distributed"
        )
        for r in range(n_ranks):
            obs.gauge_set(
                "worker_occupancy",
                float(report.busy[r]) / max(report.makespan, 1e-300),
                worker=str(r),
            )
        obs.counter_add("remote_messages", report.comm.messages)
        obs.counter_add("remote_bytes", report.comm.bytes_sent)
    return report


def _run_once(
    graph, matrix, dist, placement, n_ranks, completed0, resend,
    rule, use_pool, faults, recovery, ckptr, panel_tasks,
    rrep, report, timeout_s, chaos_kill, attempt, inline,
) -> None:
    """One launch-collect-gather attempt; raises ``_RankDied`` on loss."""
    t0_wall = time.time()
    observing = obs.enabled()
    t0_obs = obs.clock()
    deadline = None if timeout_s is None else t0_wall + timeout_s

    def make_cfg(r: int) -> _RankConfig:
        owned = {
            ij: (t.copy() if inline else t)
            for ij, t in matrix.tiles.items()
            if dist.owner(*ij) == r
        }
        return _RankConfig(
            rank=r, graph=graph, dist=dist, tiles=owned,
            rule=rule, use_pool=use_pool,
            completed=frozenset(completed0), resend=tuple(resend[r]),
            faults=faults, recovery=recovery,
            ckpt_every=None if ckptr is None else ckptr.config.every,
            t0_wall=t0_wall, deadline=deadline, attempt=attempt,
            chaos_kill=chaos_kill, observing=observing,
        )

    payloads: dict[int, dict] = {}
    finals: dict[tuple[int, int], object] = {}  # streamed final tiles
    lost: list[int] = []
    readers: dict[object, int] = {}  # live pipe from a rank -> that rank
    # Inline ranks share this process's observation: like forked ranks
    # they must not write into it until they are joined.
    detached = contextlib.ExitStack()
    if inline:
        detached.enter_context(obs.suspended())
        inboxes = [_queue.Queue() for _ in range(n_ranks)]
        to_rank = [q.put for q in inboxes]
        results = _queue.Queue()
        workers = [
            threading.Thread(
                target=_rank_main,
                args=(make_cfg(r), inboxes[r], inboxes, results.put),
                name=f"repro-rank-{r}",
            )
            for r in range(n_ranks)
        ]
        for w in workers:
            w.start()
    else:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context("spawn")
        # One pipe per (sender, receiver) pair, the controller being
        # process ``n_ranks``: every pipe has one writing process, whose
        # death reads as EOF — here and at its peers.
        everyone = range(n_ranks + 1)
        pipes = {
            (s, d): ctx.Pipe(duplex=False)
            for s in everyone for d in everyone if s != d
        }
        workers = [
            ctx.Process(
                target=_rank_process, args=(make_cfg(r), pipes),
                name=f"repro-rank-{r}",
            )
            for r in range(n_ranks)
        ]
        for w in workers:
            w.start()
        inbox, outbox = _own_pipe_ends(pipes, n_ranks)
        readers = dict(zip(inbox, range(n_ranks)))
        to_rank = [outbox[r].send for r in range(n_ranks)]

    def poll() -> list:
        """Messages arriving within 0.25 s.  A pipe at EOF (or cut short)
        before its rank's payload arrived marks that rank lost."""
        if inline:
            try:
                return [results.get(timeout=0.25)]
            except _queue.Empty:
                return []
        msgs = []
        for conn in wait_readable(list(readers), timeout=0.25):
            try:
                msgs.append(conn.recv())
            except (EOFError, OSError):
                conn.close()
                r = readers.pop(conn)
                if r not in payloads:
                    lost.append(r)
        return msgs

    latest_shard: dict[int, dict] = {}
    last_saved_panels = _leading_panels_done(panel_tasks, completed0)
    error: tuple | None = None  # (rank, exception or None, traceback)
    try:
        while len(payloads) < n_ranks and error is None and not lost:
            msgs = poll()
            if not msgs and not lost:
                if deadline is not None and time.time() > deadline:
                    raise RuntimeSystemError(
                        f"distributed execution exceeded {timeout_s:.1f}s; "
                        f"{n_ranks - len(payloads)} rank(s) still running"
                    )
                lost = [
                    r for r in range(n_ranks)
                    if r not in payloads and not workers[r].is_alive()
                ]
            for msg in msgs:
                kind = msg[0]
                if kind == "final":
                    finals[msg[2]] = msg[3]
                elif kind == "done":
                    payloads[msg[1]] = msg[2]
                elif kind == "error":
                    error = msg[1:]
                elif kind == "panel" and ckptr is not None:
                    latest_shard[msg[1]] = msg[3]
                    union = set(completed0)
                    for shard in latest_shard.values():
                        union.update(shard["completed"])
                    panels_done = _leading_panels_done(panel_tasks, union)
                    if (
                        panels_done - last_saved_panels >= ckptr.config.every
                        and len(union) < len(graph.tasks)
                    ):
                        snap = matrix.copy()
                        for shard in latest_shard.values():
                            for ij, tile in shard["tiles"].items():
                                snap.set_tile(*ij, tile)
                        ckptr.save(snap, union, panels_done)
                        if rrep is not None:
                            rrep.checkpoints_written += 1
                        last_saved_panels = panels_done
    finally:
        for put in to_rank:  # done, failed or lost: everybody leaves

            try:
                put(("stop",))
            except OSError:  # that rank is dead
                pass
        # Nothing more is read: a rank still streaming tiles into a full
        # pipe must see it break, not wait for a reader.
        for conn in readers:
            conn.close()
        for w in workers:
            w.join(timeout=2.0)
        detached.close()
        if not inline:
            for w in workers:
                if w.is_alive():  # pragma: no cover - stuck rank
                    w.terminate()
                    w.join(timeout=2.0)
            for end in outbox.values():
                end.close()

    if error is not None:
        # The thread-boundary rule of the core, at the process boundary.
        raise RuntimeSystemError(
            f"rank {error[0]} failed while executing the graph:\n{error[2]}"
        ) from error[1]
    if lost:
        raise _RankDied(lost)

    # Gather: every owned tile's final version arrived while the ranks
    # were computing; the run completed, so the matrix takes them now.
    for ij, tile in finals.items():
        matrix.set_tile(*ij, tile)

    # Merge the ranks' core reports.  Pool and tracker figures add up
    # (owned tiles are disjoint and every rank is its own address space,
    # so the summed peaks are the capacity the run needs).
    busy = np.zeros(n_ranks)
    trace: list[tuple] = []
    df = report.dataflow
    for r, payload in sorted(payloads.items()):
        report.counter.merge(payload["counter"])
        _add_fields(report.pool.stats, payload["pool_stats"])
        _add_fields(report.tracker, payload["tracker"], _TRACKED)
        _add_fields(report.comm, payload["comm"])
        report.rank_growth_events += payload["rank_growth_events"]
        report.max_rank_seen = max(
            report.max_rank_seen, payload["max_rank_seen"]
        )
        report.tasks_executed += payload["tasks_executed"]
        report.wire_messages += payload["wire"][0]
        report.wire_bytes += payload["wire"][1]
        busy[r] = payload["busy"]
        trace.extend(payload["trace"])
        for key, cnt in payload["df_edges"].items():
            df.edges[key] = df.edges.get(key, 0) + cnt
        for key, nbytes in payload["df_bytes"].items():
            df.bytes_remote[key] = df.bytes_remote.get(key, 0) + nbytes
        if payload["resilience"] is not None and rrep is not None:
            _add_fields(rrep, payload["resilience"])

    report.busy = busy
    report.trace = sorted(trace, key=lambda rec: (rec[1], rec[2]))
    report.launch_s = min((rec[2] for rec in trace), default=0.0)
    last_end = max((rec[3] for rec in trace), default=report.launch_s)
    report.run_s = last_end - report.launch_s
    report.makespan = time.time() - t0_wall
    report.gather_s = report.makespan - last_end

    if observing:
        for tid, r, start, end in report.trace:
            task = graph.tasks[tid]
            obs.record_span(
                task_name(tid), "task",
                start=t0_obs + start, end=t0_obs + end,
                thread=f"rank-{r}", worker=r,
                kernel=task.kernel.value, flops=task.flops,
            )
        # One comm span per wire hop: a tile reaches a rank once, so
        # (producer task, receiving rank) pairs each send with its arrival;
        # every receiving rank consumes the tile, so it arrived before the
        # rank's payload left.
        arrived = {
            (tid, dst): t
            for dst, payload in payloads.items()
            for tid, t in payload["recvs"]
        }
        for src, payload in sorted(payloads.items()):
            for tid, dst, sent in payload["sends"]:
                obs.record_span(
                    task_name(tid), "comm",
                    start=t0_obs + sent, end=t0_obs + arrived[tid, dst],
                    thread=f"rank-{src}->rank-{dst}", src=src, dst=dst,
                )
