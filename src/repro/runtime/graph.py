"""Parameterized task-graph builder for the BAND-DENSE-TLR Cholesky.

Builds the full dependency DAG (the unfolding of the PTG) for a given tile
count ``NT``, band width, and per-tile rank information.  The same graph
feeds the real executor (numerics) and the discrete-event simulator
(timing), which is the property the validation strategy relies on.

Dependency structure of the right-looking tile Cholesky::

    POTRF(k)   <- SYRK(k, k-1)                       [tile (k,k), LOCAL chain]
    TRSM(m,k)  <- POTRF(k)                           [tile (k,k), broadcast]
               <- GEMM(m,k,k-1)                      [tile (m,k), LOCAL chain]
    SYRK(n,k)  <- TRSM(n,k)                          [tile (n,k), p2p]
               <- SYRK(n,k-1)                        [tile (n,n), LOCAL chain]
    GEMM(m,n,k)<- TRSM(m,k)                          [tile (m,k), row bcast]
               <- TRSM(n,k)                          [tile (n,k), col bcast]
               <- GEMM(m,n,k-1)                      [tile (m,n), LOCAL chain]

Kernel classes and Table-I costs are derived from the band predicate and
the supplied rank function exactly as in :mod:`repro.linalg.flops`.

That is the paper's PTG and the builder's default.  ``fused=True`` builds
the form the library's own factorizations execute: a low-rank destination
``(m, n)`` is updated *left-looking* by **one** task, ``GEMM(m, n, n-1)``,
whose edges name every panel tile it reads::

    GEMM(m,n,n-1) <- TRSM(m,j), TRSM(n,j)  for every j < n   [row/col bcasts]
    TRSM(m,n)     <- GEMM(m,n,n-1)                           [tile (m,n), LOCAL]

so one rounding replaces ``n``; dense destinations keep the chains above.
Because the fused task's inputs are all edges, executors, checkpoint
resume and rank-to-rank resends need no second mechanism — and executing
the default graph with the same kernel (one pair per task) is the
per-update oracle the fused form is tested against.

Optionally, region-(1) (all-dense band) tasks are *expanded* into their
nested recursive sub-graphs (Section VII-D): each expanded task becomes
``fork -> sub-tasks -> join`` with zero-cost fork/join bookkeeping nodes,
so external edges stay at the tile level while the simulator sees the
extra concurrency.  The sub-graphs are cost-only
(:func:`recursive_task_costs`): the executors run the whole-tile kernel,
which is numerically the same update.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..linalg.flops import (
    KernelClass,
    flops_gemm_dense,
    flops_gemm_dense_lrd,
    flops_gemm_dense_lrlr,
    flops_gemm_lr_dense_general,
    flops_gemm_lr_fused,
    flops_gemm_lr_general,
    flops_potrf_dense,
    flops_syrk_dense,
    flops_syrk_lr,
    flops_trsm_dense,
    flops_trsm_lr,
)
from ..utils.exceptions import ConfigurationError, SchedulingError
from ..utils.validation import check_positive_int
from .task import Edge, Task, TaskId, TaskKind, task_sort_key

__all__ = [
    "Dataflow",
    "TaskGraph",
    "build_cholesky_graph",
    "graph_for_matrix",
    "classify_gemm",
    "expand_recursive",
    "recursive_task_costs",
    "RankFn",
]

#: Rank accessor: ``rank_fn(i, j) -> int`` for an off-band tile ``(i, j)``.
RankFn = Callable[[int, int], int]


@dataclass(frozen=True)
class Dataflow:
    """What executing a graph needs from its edges, derived once per graph
    (:meth:`TaskGraph.dataflow`) and shared by every run of it.

    Attributes
    ----------
    succs:
        ``task id -> distinct consumers``.
    indeg:
        ``task id -> number of distinct producers``: the dependency
        countdown of a run that starts from nothing, which a run copies.
    keys:
        ``task id ->`` :func:`~repro.runtime.task.task_sort_key`.
    panel_tasks:
        ``panel -> number of tasks``.
    tile_level:
        Every task carries the tile-level id of its kind and indices
        (the graph was not expanded by ``recursive_split``).
    """

    succs: dict
    indeg: dict
    keys: dict
    panel_tasks: dict
    tile_level: bool


def _canonical_tid(task: Task) -> TaskId:
    """The tile-level id a task of this kind/indices should carry."""
    if task.kind is TaskKind.POTRF:
        return (TaskKind.POTRF, task.out_tile[0])
    if task.kind is TaskKind.TRSM:
        return (TaskKind.TRSM, *task.out_tile)
    if task.kind is TaskKind.SYRK:
        return (TaskKind.SYRK, task.out_tile[0], task.panel)
    return (TaskKind.GEMM, *task.out_tile, task.panel)


@dataclass
class TaskGraph:
    """An unfolded task DAG with dataflow edges.

    Attributes
    ----------
    ntiles:
        Tile count per dimension.
    band_size:
        Dense band width used to classify kernels.
    tile_size:
        Nominal tile dimension ``b`` used for costs and message sizes.
    tasks:
        ``task id -> Task``.
    succs:
        ``task id -> outgoing edges`` (mirror of every task's ``deps``).
    """

    ntiles: int
    band_size: int
    tile_size: int
    tasks: dict[TaskId, Task] = field(default_factory=dict)
    succs: dict[TaskId, list[Edge]] = field(default_factory=dict)
    _dataflow: Dataflow | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # A copy is made to be edited: it derives its own dataflow.
        return {**self.__dict__, "_dataflow": None}

    def add_task(self, task: Task) -> None:
        """Insert a task and index its dependency edges."""
        if task.tid in self.tasks:
            raise SchedulingError(f"duplicate task {task.tid}")
        self._dataflow = None
        self.tasks[task.tid] = task
        self.succs.setdefault(task.tid, [])
        for e in task.deps:
            if e.dst != task.tid:
                raise SchedulingError(f"edge {e} does not target task {task.tid}")
            self.succs.setdefault(e.src, []).append(e)

    def dataflow(self) -> Dataflow:
        """The graph's :class:`Dataflow`, derived on first use and kept.

        :meth:`add_task` drops it and a copy does not share it; a graph
        whose tasks or edges are edited in place must be copied first.
        """
        flow = self._dataflow
        if flow is None:
            producers = {
                tid: tuple(dict.fromkeys(e.src for e in task.deps))
                for tid, task in self.tasks.items()
            }
            succs: dict[TaskId, list[TaskId]] = {tid: [] for tid in self.tasks}
            panel_tasks: dict[int, int] = {}
            for tid, task in self.tasks.items():
                for src in producers[tid]:
                    succs[src].append(tid)
                panel_tasks[task.panel] = panel_tasks.get(task.panel, 0) + 1
            flow = self._dataflow = Dataflow(
                succs=succs,
                indeg={tid: len(srcs) for tid, srcs in producers.items()},
                keys={tid: task_sort_key(t) for tid, t in self.tasks.items()},
                panel_tasks=panel_tasks,
                tile_level=all(
                    tid == _canonical_tid(t) for tid, t in self.tasks.items()
                ),
            )
        return flow

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def total_flops(self) -> float:
        """Sum of modelled flops over all tasks."""
        return sum(t.flops for t in self.tasks.values())

    def topological_order(self) -> list[TaskId]:
        """Kahn topological order; raises on cycles.

        Ties are broken by the scheduling priority so the order doubles as
        a sensible serial execution order.
        """
        import heapq

        indeg = {tid: len(t.deps) for tid, t in self.tasks.items()}
        heap = [
            (task_sort_key(self.tasks[tid]), tid)
            for tid, d in indeg.items()
            if d == 0
        ]
        heapq.heapify(heap)
        order: list[TaskId] = []
        while heap:
            _, tid = heapq.heappop(heap)
            order.append(tid)
            for e in self.succs.get(tid, []):
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    heapq.heappush(heap, (task_sort_key(self.tasks[e.dst]), e.dst))
        if len(order) != len(self.tasks):
            raise SchedulingError(
                f"task graph has a cycle: ordered {len(order)} of {len(self.tasks)}"
            )
        return order

    def validate(self) -> None:
        """Structural sanity: every edge endpoint exists, graph acyclic."""
        for tid, t in self.tasks.items():
            for e in t.deps:
                if e.src not in self.tasks:
                    raise SchedulingError(f"task {tid} depends on unknown {e.src}")
        self.topological_order()

    def critical_path_flops(self) -> float:
        """Longest path weight (in flops) through the DAG.

        A machine-independent lower-bound proxy for the makespan; the
        recursive-kernel expansion exists precisely to shrink this.
        """
        order = self.topological_order()
        dist = {tid: 0.0 for tid in order}
        best = 0.0
        for tid in order:
            here = dist[tid] + self.tasks[tid].flops
            best = max(best, here)
            for e in self.succs.get(tid, []):
                if here > dist[e.dst]:
                    dist[e.dst] = here
        return best


def classify_gemm(
    m: int, n: int, k: int, band_size: int
) -> KernelClass:
    """Kernel class of GEMM(m, n, k) under band width ``band_size``.

    Uses the index identities ``n - k <= m - k`` (so *A dense ⇒ B dense*)
    and ``m - k >= m - n`` (so *C low-rank ⇒ A low-rank*); see
    :mod:`repro.linalg.flops`.
    """
    if not (m > n > k >= 0):
        raise ConfigurationError(f"GEMM indices must satisfy m > n > k, got {m},{n},{k}")
    c_dense = (m - n) < band_size
    a_dense = (m - k) < band_size
    b_dense = (n - k) < band_size
    if c_dense:
        if a_dense:  # implies b_dense
            return KernelClass.GEMM_DENSE
        return KernelClass.GEMM_DENSE_LRD if b_dense else KernelClass.GEMM_DENSE_LRLR
    # C low-rank implies A low-rank
    return KernelClass.GEMM_LR_DENSE if b_dense else KernelClass.GEMM_LR


def _tile_elements(i: int, j: int, b: int, band_size: int, rank_fn: RankFn) -> int:
    """Message size (elements) of tile ``(i, j)`` under the band layout."""
    if (i - j) < band_size:
        return b * b
    return 2 * b * rank_fn(i, j)


def build_cholesky_graph(
    ntiles: int,
    band_size: int,
    tile_size: int,
    rank_fn: RankFn,
    *,
    fused: bool = False,
    recursive_split: int | None = None,
    recursive_kernels: frozenset[KernelClass] | set[KernelClass] | None = None,
) -> TaskGraph:
    """Unfold the BAND-DENSE-TLR Cholesky PTG into a concrete DAG.

    Parameters
    ----------
    ntiles:
        Number of tile rows/columns ``NT``.
    band_size:
        Dense band width (1 = pure TLR / HiCMA-Prev layout; >= NT = dense).
    tile_size:
        Nominal ``b`` for costs and message sizes.
    rank_fn:
        Rank of off-band tile ``(i, j)`` (used for costs/messages; the
        builder never inspects tile data).
    fused:
        Build the left-looking form for low-rank destinations (module
        docstring): one ``GEMM(m, n, n-1)`` per off-band tile carrying all
        ``n`` panel products, costed by
        :func:`~repro.linalg.flops.flops_gemm_lr_fused`.  The default is
        the paper's right-looking PTG, which the simulator studies and
        the per-update test oracle use.
    recursive_split:
        When given (>= 2), region-(1) tasks are expanded into their nested
        sub-graphs with this split factor (Section VII-D).
    recursive_kernels:
        Which region-(1) kernel classes to expand; defaults to all four.
        PaRSEC-HiCMA-Prev recursed only POTRF ("nested computing"), so the
        Table II comparison passes ``{KernelClass.POTRF_DENSE}`` for the
        baseline and the full set for PaRSEC-HiCMA-New.

    Returns
    -------
    TaskGraph
    """
    nt = check_positive_int("ntiles", ntiles)
    band_size = check_positive_int("band_size", band_size)
    b = check_positive_int("tile_size", tile_size)
    if recursive_split is not None and recursive_split < 2:
        raise ConfigurationError("recursive_split must be >= 2 when given")

    g = TaskGraph(ntiles=nt, band_size=band_size, tile_size=b)

    def elements(i: int, j: int) -> int:
        return _tile_elements(i, j, b, band_size, rank_fn)

    for k in range(nt):
        # ---- POTRF(k) -------------------------------------------------
        tid = (TaskKind.POTRF, k)
        deps = []
        if k > 0:
            deps.append(Edge((TaskKind.SYRK, k, k - 1), tid, (k, k), b * b))
        g.add_task(
            Task(
                tid=tid,
                kind=TaskKind.POTRF,
                kernel=KernelClass.POTRF_DENSE,
                flops=flops_potrf_dense(b),
                out_tile=(k, k),
                deps=deps,
                panel=k,
            )
        )

        for m in range(k + 1, nt):
            # ---- TRSM(m, k) -------------------------------------------
            tid = (TaskKind.TRSM, m, k)
            on_band = (m - k) < band_size
            kernel = KernelClass.TRSM_DENSE if on_band else KernelClass.TRSM_LR
            r_trsm = 0 if on_band else rank_fn(m, k)
            fl = flops_trsm_dense(b) if on_band else flops_trsm_lr(b, r_trsm)
            deps = [Edge((TaskKind.POTRF, k), tid, (k, k), b * b)]
            if k > 0:
                deps.append(
                    Edge((TaskKind.GEMM, m, k, k - 1), tid, (m, k), elements(m, k))
                )
            g.add_task(
                Task(
                    tid=tid,
                    kind=TaskKind.TRSM,
                    kernel=kernel,
                    flops=fl,
                    out_tile=(m, k),
                    deps=deps,
                    panel=k,
                    rank_hint=r_trsm,
                )
            )

        for n in range(k + 1, nt):
            # ---- SYRK(n, k) -------------------------------------------
            tid = (TaskKind.SYRK, n, k)
            a_on_band = (n - k) < band_size
            kernel = KernelClass.SYRK_DENSE if a_on_band else KernelClass.SYRK_LR
            r_syrk = 0 if a_on_band else rank_fn(n, k)
            fl = flops_syrk_dense(b) if a_on_band else flops_syrk_lr(b, r_syrk)
            deps = [Edge((TaskKind.TRSM, n, k), tid, (n, k), elements(n, k))]
            if k > 0:
                deps.append(Edge((TaskKind.SYRK, n, k - 1), tid, (n, n), b * b))
            g.add_task(
                Task(
                    tid=tid,
                    kind=TaskKind.SYRK,
                    kernel=kernel,
                    flops=fl,
                    out_tile=(n, n),
                    deps=deps,
                    panel=k,
                    rank_hint=r_syrk,
                )
            )

            for m in range(n + 1, nt):
                # ---- GEMM(m, n, k) ------------------------------------
                tid = (TaskKind.GEMM, m, n, k)
                lr_dest = (m - n) >= band_size
                if fused and lr_dest:
                    # One task per low-rank destination, issued with the
                    # last panel and reading all of them.
                    if k != n - 1:
                        continue
                    panels = range(n)
                else:
                    panels = (k,)
                rc = rank_fn(m, n) if lr_dest else 0
                # (k_a, k_b) per panel; None marks a dense operand.
                ranks = [
                    (
                        rank_fn(m, j) if (m - j) >= band_size else None,
                        rank_fn(n, j) if (n - j) >= band_size else None,
                    )
                    for j in panels
                ]
                ra, rb = ranks[-1]
                kernel = classify_gemm(m, n, panels[0], band_size)
                if kernel is KernelClass.GEMM_DENSE:
                    fl = flops_gemm_dense(b)
                elif kernel is KernelClass.GEMM_DENSE_LRD:
                    fl = flops_gemm_dense_lrd(b, ra)
                elif kernel is KernelClass.GEMM_DENSE_LRLR:
                    fl = flops_gemm_dense_lrlr(b, ra, rb)
                elif fused:
                    fl = flops_gemm_lr_fused(b, rc, ranks)
                elif kernel is KernelClass.GEMM_LR_DENSE:
                    fl = flops_gemm_lr_dense_general(b, rc, max(ra, 1))
                else:
                    fl = flops_gemm_lr_general(b, rc, max(ra, 1), max(rb, 1))
                deps = []
                for j in panels:
                    deps.append(
                        Edge((TaskKind.TRSM, m, j), tid, (m, j), elements(m, j))
                    )
                    deps.append(
                        Edge((TaskKind.TRSM, n, j), tid, (n, j), elements(n, j))
                    )
                if k > 0 and not (fused and lr_dest):
                    deps.append(
                        Edge((TaskKind.GEMM, m, n, k - 1), tid, (m, n), elements(m, n))
                    )
                hint = max(rc, *(r or 0 for pair in ranks for r in pair))
                g.add_task(
                    Task(
                        tid=tid,
                        kind=TaskKind.GEMM,
                        kernel=kernel,
                        flops=fl,
                        out_tile=(m, n),
                        deps=deps,
                        panel=k,
                        rank_hint=hint,
                    )
                )

    if recursive_split is not None:
        g = expand_recursive(g, recursive_split, kernels=recursive_kernels)
    return g


def graph_for_matrix(matrix) -> TaskGraph:
    """The graph a factorization of ``matrix`` executes: the fused form at
    the matrix's geometry, costed from its current rank grid (dense,
    pending and rank-0 tiles count as rank 1).

    Built once per exact key ``(NT, band, b, rank grid)`` and shared
    while the last few keys stay cached: every step of a deferred MLE
    evaluation holds nothing but pending tiles, so all of them run one
    graph.  The returned graph is shared — treat it as immutable (copy
    it to edit it).
    """
    return _fused_graph(
        matrix.ntiles,
        matrix.band_size,
        matrix.desc.tile_size,
        matrix.rank_grid().tobytes(),
    )


@functools.lru_cache(maxsize=4)
def _fused_graph(nt: int, band_size: int, b: int, grid: bytes) -> TaskGraph:
    ranks = np.frombuffer(grid, dtype=np.int64).reshape(nt, nt)
    return build_cholesky_graph(
        nt, band_size, b, lambda i, j: int(max(ranks[i, j], 1)), fused=True
    )


def expand_recursive(
    g: TaskGraph,
    split: int,
    *,
    kernels: frozenset[KernelClass] | set[KernelClass] | None = None,
) -> TaskGraph:
    """Expand region-(1) tasks into nested sub-graphs (fork/join framed).

    Every dense-band task becomes::

        external deps -> FORK -> sub-tasks (recursive graph) -> JOIN -> succs

    Fork/join are zero-flop bookkeeping nodes placed on the same tile so
    the simulator's owner-computes placement keeps the whole nest local —
    PaRSEC's nested tasks likewise never migrate.

    ``kernels`` restricts expansion to a subset of the region-(1) classes
    (default: all four).
    """
    check_positive_int("split", split)
    if kernels is None:
        kernels = {k for k in KernelClass if k.is_band_kernel}
    out = TaskGraph(
        ntiles=g.ntiles, band_size=g.band_size, tile_size=g.tile_size
    )
    # Tasks that expand keep their tid for the JOIN node so external
    # edges (which reference the original tid) stay valid.
    for tid in g.topological_order():
        t = g.tasks[tid]
        if not (t.kernel.is_band_kernel and t.kernel in kernels):
            out.add_task(
                Task(
                    tid=t.tid,
                    kind=t.kind,
                    kernel=t.kernel,
                    flops=t.flops,
                    out_tile=t.out_tile,
                    deps=list(t.deps),
                    panel=t.panel,
                    rank_hint=t.rank_hint,
                )
            )
            continue

        costs = recursive_task_costs(t.kernel, g.tile_size, split)
        fork_id = t.tid + ("fork",)
        out.add_task(
            Task(
                tid=fork_id,
                kind=t.kind,
                kernel=t.kernel,
                flops=0.0,
                out_tile=t.out_tile,
                deps=[Edge(e.src, fork_id, e.tile, e.elements) for e in t.deps],
                panel=t.panel,
            )
        )
        sub_ids = [t.tid + ("sub", idx) for idx in range(len(costs))]
        dependents: set[int] = set()
        for idx, (kernel, flops, sub_deps) in enumerate(costs):
            deps = [Edge(sub_ids[d], sub_ids[idx], t.out_tile, 0) for d in sub_deps]
            if not sub_deps:
                deps.append(Edge(fork_id, sub_ids[idx], t.out_tile, 0))
            dependents.update(sub_deps)
            out.add_task(
                Task(
                    tid=sub_ids[idx],
                    kind=t.kind,
                    kernel=kernel,
                    flops=flops,
                    out_tile=t.out_tile,
                    deps=deps,
                    panel=t.panel,
                )
            )
        exits = [sub_ids[i] for i in range(len(costs)) if i not in dependents]
        out.add_task(
            Task(
                tid=t.tid,  # JOIN inherits the original id
                kind=t.kind,
                kernel=t.kernel,
                flops=0.0,
                out_tile=t.out_tile,
                deps=[Edge(x, t.tid, t.out_tile, 0) for x in exits],
                panel=t.panel,
            )
        )
    return out


def _split_ranges(b: int, split: int) -> list[slice]:
    """Partition ``range(b)`` into ``split`` nearly equal slices."""
    b = check_positive_int("b", b)
    split = check_positive_int("split", split)
    if split > b:
        raise ConfigurationError(f"split {split} exceeds tile size {b}")
    bounds = np.linspace(0, b, split + 1).astype(int)
    return [slice(int(bounds[i]), int(bounds[i + 1])) for i in range(split)]


def recursive_task_costs(
    kind: KernelClass, b: int, split: int
) -> list[tuple[KernelClass, float, tuple[int, ...]]]:
    """Nested sub-graph of one region-(1) kernel on a ``b x b`` tile.

    Returns ``(kernel class, flops, deps)`` per sub-task over ``split x
    split`` sub-tiles, where ``deps`` index earlier sub-tasks.  The graph
    is data-flow exact: a sub-task waits for the last writer of the
    sub-tile it updates and of each factor sub-tile it reads.
    """
    split = check_positive_int("split", split)
    if not kind.is_band_kernel:
        raise ConfigurationError(f"{kind} is not a region-(1) kernel")
    sz = [r.stop - r.start for r in _split_ranges(b, split)]
    s = len(sz)
    tasks: list[tuple[KernelClass, float, tuple[int, ...]]] = []
    writer: dict[tuple[int, int], int] = {}

    def emit(cls: KernelClass, flops: float, out, *reads) -> None:
        deps = sorted({writer[key] for key in (out, *reads) if key in writer})
        tasks.append((cls, flops, tuple(deps)))
        writer[out] = len(tasks) - 1

    if kind is KernelClass.POTRF_DENSE:
        # Blocked right-looking Cholesky over the sub-tiles.
        for k in range(s):
            emit(KernelClass.POTRF_DENSE, flops_potrf_dense(sz[k]), (k, k))
            for m in range(k + 1, s):
                emit(KernelClass.TRSM_DENSE, flops_trsm_dense(max(sz[m], sz[k])),
                     (m, k), (k, k))
            for n in range(k + 1, s):
                emit(KernelClass.SYRK_DENSE, flops_syrk_dense(sz[n]), (n, n), (n, k))
                for m in range(n + 1, s):
                    emit(KernelClass.GEMM_DENSE, flops_gemm_dense(max(sz[m], sz[n])),
                         (m, n), (m, k), (n, k))
    elif kind is KernelClass.TRSM_DENSE:
        # C <- C L^{-T}: column block j takes C[:, j] -= C[:, i] L[j, i]^T
        # for every i < j, then a small TRSM with L[j, j].
        for j in range(s):
            for i in range(j):
                for r in range(s):
                    emit(KernelClass.GEMM_DENSE, flops_gemm_dense(max(sz[r], sz[j])),
                         (r, j), (r, i))
            for r in range(s):
                emit(KernelClass.TRSM_DENSE, flops_trsm_dense(max(sz[r], sz[j])), (r, j))
    elif kind is KernelClass.SYRK_DENSE:
        # C <- C - A A^T: the k sub-updates of each lower sub-tile chain.
        for i in range(s):
            for j in range(i + 1):
                for _ in range(s):
                    if i == j:
                        emit(KernelClass.SYRK_DENSE, flops_syrk_dense(sz[i]), (i, j))
                    else:
                        emit(KernelClass.GEMM_DENSE, flops_gemm_dense(sz[i]), (i, j))
    else:
        # C <- C - A B^T: the k sub-updates of each sub-tile chain.
        for i in range(s):
            for j in range(s):
                for _ in range(s):
                    emit(KernelClass.GEMM_DENSE, flops_gemm_dense(sz[i]), (i, j))
    return tasks
