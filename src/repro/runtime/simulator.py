"""Discrete-event simulator of a distributed task runtime.

Replays a :class:`~repro.runtime.graph.TaskGraph` on a
:class:`~repro.runtime.machine.MachineSpec` under a data distribution:

* **placement** follows the owner-computes rule — a task runs on the
  process owning its output tile, exactly how the PTG maps tasks;
* **LOCAL edges** (producer and consumer on one process) cost nothing;
* **REMOTE edges** post messages.  One datum sent to several consumers on
  one destination process is transferred once (PaRSEC tracks data, not
  edges); several destination processes form a broadcast, modelled either
  as a ``tree`` (logarithmic depth, PaRSEC collectives) or ``flat``
  (sender NIC serializes one copy per destination);
* each process schedules ready tasks on its ``cores_per_node`` cores,
  highest priority (earliest panel) first.

The simulator reports makespan, per-process busy/idle time (Fig. 11),
panel-release times (Fig. 9), communication statistics, and an optional
full per-task trace.  It performs no numerics — costs come from Table I
via the graph and from the kernel-rate model — which is what lets it
replay 512-node runs the real executor could never hold.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..distribution.distributions import Distribution
from ..linalg.flops import KernelClass
from ..utils.exceptions import SchedulingError
from .graph import TaskGraph
from .machine import MachineSpec
from .task import TaskKind, task_sort_key

__all__ = ["CommStats", "SimResult", "simulate", "simulate_schedule"]

#: Distribution variants a sweep can name (see :func:`simulate_schedule`).
DISTRIBUTION_NAMES = ("band", "2d", "1d")

_BYTES = 8  # float64


@dataclass
class CommStats:
    """Communication accounting of one simulated run."""

    local_edges: int = 0
    remote_edges: int = 0
    messages: int = 0
    bytes_sent: int = 0
    broadcasts: int = 0

    @property
    def remote_fraction(self) -> float:
        total = self.local_edges + self.remote_edges
        return self.remote_edges / total if total else 0.0


@dataclass
class SimResult:
    """Outcome of a simulated execution.

    Attributes
    ----------
    makespan:
        Simulated wall-clock seconds.
    busy:
        Per-process busy core-seconds.
    comm:
        Communication statistics.
    busy_by_kernel:
        Core-seconds spent per kernel class (the Fig. 10 time
        decomposition the simulator can report directly).
    potrf_done:
        ``potrf_done[k]`` — completion time of POTRF(k).
    panel_done:
        ``panel_done[k]`` — completion time of panel k (its last TRSM).
    total_flops:
        Modelled flops executed.
    trace:
        Optional per-task records ``(tid, proc, start, end)``.
    nodes, cores_per_node:
        Machine shape, for occupancy math.
    """

    makespan: float
    busy: np.ndarray
    comm: CommStats
    potrf_done: list[float]
    panel_done: list[float]
    total_flops: float
    nodes: int
    cores_per_node: int
    trace: list[tuple] | None = None
    busy_by_kernel: dict[KernelClass, float] = field(default_factory=dict)

    @property
    def occupancy(self) -> np.ndarray:
        """Per-process core occupancy in [0, 1]."""
        denom = self.cores_per_node * max(self.makespan, 1e-300)
        return self.busy / denom

    @property
    def achieved_gflops(self) -> float:
        """Aggregate modelled throughput (flops / makespan / 1e9)."""
        return self.total_flops / max(self.makespan, 1e-300) / 1e9


def simulate(
    graph: TaskGraph,
    dist: Distribution,
    machine: MachineSpec,
    *,
    zero_cost_kernels: frozenset[KernelClass] | set[KernelClass] = frozenset(),
    collect_trace: bool = False,
    scheduler: str = "priority",
) -> SimResult:
    """Simulate ``graph`` on ``machine`` under distribution ``dist``.

    Parameters
    ----------
    zero_cost_kernels:
        Kernel classes whose tasks execute in zero time — used by the
        Fig. 10 ``No_TLR_GEMM`` experiment, which measures the critical
        path by making all low-rank updates free.
    collect_trace:
        Record per-task (tid, proc, start, end) tuples (memory-heavy).
    scheduler:
        Ready-queue policy per process (PaRSEC ships several schedulers):
        ``"priority"`` — panel-ordered keys promoting the critical path
        (the default, PaRSEC's priority-aware behaviour for Cholesky);
        ``"fifo"`` — tasks run in become-ready order;
        ``"lifo"`` — newest-ready first (locality-greedy).
    """
    if scheduler not in ("priority", "fifo", "lifo"):
        raise SchedulingError(
            f"scheduler must be 'priority', 'fifo' or 'lifo', got {scheduler!r}"
        )
    if dist.nprocs != machine.nodes:
        raise SchedulingError(
            f"distribution targets {dist.nprocs} processes but the machine "
            f"has {machine.nodes} nodes"
        )

    tids = list(graph.tasks)
    index = {tid: i for i, tid in enumerate(tids)}
    n = len(tids)
    b = graph.tile_size

    # --- static per-task arrays ---------------------------------------
    proc = np.empty(n, dtype=np.int64)
    duration = np.empty(n, dtype=np.float64)
    prio: list[tuple] = [()] * n
    kernels_arr: list = [None] * n
    busy_by_kernel: dict[KernelClass, float] = {}
    for tid, i in index.items():
        t = graph.tasks[tid]
        proc[i] = dist.owner(*t.out_tile)
        prio[i] = task_sort_key(t)
        kernels_arr[i] = t.kernel
        if t.kernel in zero_cost_kernels or t.flops <= 0.0:
            duration[i] = 0.0
        else:
            # Effective rank driving the rate model: the builder-provided
            # hint when available, else recovered from the Table-I cost
            # (hand-built graphs may omit hints).
            k_eff = t.rank_hint or _rank_hint(t.kernel, t.flops, b)
            duration[i] = machine.rates.seconds(t.kernel, t.flops, b, k_eff)

    # --- dependency bookkeeping ---------------------------------------
    # unmet[i]: number of distinct *signals* task i waits for.  A signal is
    # either a local predecessor completion or a message arrival keyed by
    # (src, dest_proc) — several edges sharing the key collapse to one.
    unmet = np.zeros(n, dtype=np.int64)
    local_succ: list[list[int]] = [[] for _ in range(n)]
    msg_waiters: dict[tuple[int, int], list[int]] = {}
    send_plan: list[dict[int, int]] = [dict() for _ in range(n)]  # dst_proc -> elements

    comm = CommStats()
    for tid, i in index.items():
        seen_msg_keys: set[tuple[int, int]] = set()
        for e in graph.tasks[tid].deps:
            s = index[e.src]
            if proc[s] == proc[i]:
                comm.local_edges += 1
                local_succ[s].append(i)
                unmet[i] += 1
            else:
                comm.remote_edges += 1
                key = (s, int(proc[i]))
                send_plan[s][int(proc[i])] = e.elements
                msg_waiters.setdefault(key, []).append(i)
                if key not in seen_msg_keys:
                    seen_msg_keys.add(key)
                    unmet[i] += 1

    # A task waiting on the same (src, dest) message through two edges
    # must not be decremented twice on arrival; collapse duplicates.
    for key, waiters in msg_waiters.items():
        dedup: list[int] = []
        seen: set[int] = set()
        for w in waiters:
            if w not in seen:
                seen.add(w)
                dedup.append(w)
        msg_waiters[key] = dedup

    # --- event loop -----------------------------------------------------
    nprocs = machine.nodes
    free_cores = np.full(nprocs, machine.cores_per_node, dtype=np.int64)
    ready: list[list] = [[] for _ in range(nprocs)]  # heaps of (key, i)
    ready_seq = 0  # become-ready order, drives fifo/lifo keys

    def ready_key(i: int) -> tuple:
        nonlocal ready_seq
        ready_seq += 1
        if scheduler == "fifo":
            return (ready_seq,)
        if scheduler == "lifo":
            return (-ready_seq,)
        return prio[i]
    busy = np.zeros(nprocs, dtype=np.float64)
    nic_free = np.zeros(nprocs, dtype=np.float64)

    events: list[tuple] = []  # (time, seq, kind, payload)
    seq = 0

    def push_event(time: float, kind: int, payload) -> None:
        nonlocal seq
        heapq.heappush(events, (time, seq, kind, payload))
        seq += 1

    EV_DONE, EV_ARRIVE = 0, 1

    for i in range(n):
        if unmet[i] == 0:
            heapq.heappush(ready[proc[i]], (ready_key(i), i))

    now = 0.0
    trace: list[tuple] | None = [] if collect_trace else None
    done_time = np.full(n, -1.0)

    def launch(p: int) -> None:
        while ready[p] and free_cores[p] > 0:
            _, i = heapq.heappop(ready[p])
            free_cores[p] -= 1
            dur = duration[i]
            busy[p] += dur
            # The runtime's per-task overhead holds the core before the
            # kernel; busy time and the traced span cover the kernel
            # alone, as a recorded task span does.
            start = now
            if dur > 0.0:
                busy_by_kernel[kernels_arr[i]] = (
                    busy_by_kernel.get(kernels_arr[i], 0.0) + dur
                )
                start += machine.task_overhead_s
            end = start + dur
            if trace is not None:
                trace.append((tids[i], p, start, end))
            push_event(end, EV_DONE, i)

    for p in range(nprocs):
        launch(p)

    completed = 0
    while events:
        now, _, kind, payload = heapq.heappop(events)
        if kind == EV_DONE:
            i = payload
            p = int(proc[i])
            free_cores[p] += 1
            done_time[i] = now
            completed += 1
            # Local successors
            for s in local_succ[i]:
                unmet[s] -= 1
                if unmet[s] == 0:
                    heapq.heappush(ready[proc[s]], (ready_key(s), s))
            # Remote messages (deduplicated per destination process)
            dests = send_plan[i]
            if dests:
                if len(dests) > 1:
                    comm.broadcasts += 1
                for order, (dp, elements) in enumerate(sorted(dests.items())):
                    nbytes = elements * _BYTES
                    if machine.broadcast == "tree":
                        # Stage depth of destination #order in a binomial tree.
                        depth = int(np.ceil(np.log2(order + 2)))
                        arrival = now + depth * machine.transfer_seconds(nbytes)
                    else:
                        start = max(now, nic_free[p])
                        xfer = nbytes / machine.bandwidth_Bps
                        nic_free[p] = start + xfer
                        arrival = start + xfer + machine.latency_s
                    comm.messages += 1
                    comm.bytes_sent += nbytes
                    push_event(arrival, EV_ARRIVE, (i, dp))
            launch(p)
        else:  # EV_ARRIVE
            i, dp = payload
            for s in msg_waiters.get((i, dp), ()):  # type: ignore[arg-type]
                unmet[s] -= 1
                if unmet[s] == 0:
                    heapq.heappush(ready[proc[s]], (ready_key(s), s))
            launch(dp)

    if completed != n:
        raise SchedulingError(
            f"simulation deadlocked: {completed} of {n} tasks completed"
        )

    # --- derived metrics -------------------------------------------------
    nt = graph.ntiles
    potrf_done = [0.0] * nt
    panel_done = [0.0] * nt
    for tid, i in index.items():
        t = graph.tasks[tid]
        # Exact-id matches skip fork/sub bookkeeping nodes of recursive
        # expansions: the JOIN node inherits the original tile-task id.
        if t.kind is TaskKind.POTRF and tid == (TaskKind.POTRF, t.panel):
            potrf_done[t.panel] = float(done_time[i])
        elif t.kind is TaskKind.TRSM and tid == (TaskKind.TRSM, tid[1], t.panel):
            panel_done[t.panel] = max(panel_done[t.panel], float(done_time[i]))
    for k in range(nt):
        panel_done[k] = max(panel_done[k], potrf_done[k])

    return SimResult(
        makespan=float(now),
        busy=busy,
        comm=comm,
        potrf_done=potrf_done,
        panel_done=panel_done,
        total_flops=graph.total_flops(),
        nodes=machine.nodes,
        cores_per_node=machine.cores_per_node,
        trace=trace,
        busy_by_kernel=busy_by_kernel,
    )


def simulate_schedule(
    graph: TaskGraph,
    *,
    ranks: int = 1,
    cores: int = 1,
    rates=None,
    scheduler: str = "priority",
    distribution: str = "band",
    collect_trace: bool = False,
    **machine_kwargs,
) -> SimResult:
    """Sweep-friendly front end to :func:`simulate`.

    Builds the distribution and machine from scalar sweep coordinates —
    a named distribution variant (``"band"``: the executors' default
    placement, :func:`~repro.distribution.default_distribution`;
    ``"2d"``: plain 2DBCDD on the same grid; ``"1d"``: row-wise
    1DBCDD), a process/core count, and an optional rates object
    (:class:`~repro.runtime.machine.MeasuredRates` or a
    :class:`~repro.runtime.machine.KernelRateModel`) — so an autotuner
    can evaluate one candidate per call without repeating the plumbing.
    """
    from ..distribution.distributions import (
        OneDBlockCyclic,
        TwoDBlockCyclic,
        default_distribution,
    )

    if distribution not in DISTRIBUTION_NAMES:
        raise SchedulingError(
            f"distribution must be one of {DISTRIBUTION_NAMES}, "
            f"got {distribution!r}"
        )
    if distribution == "band":
        dist = default_distribution(graph, ranks)
    elif distribution == "2d":
        dist = TwoDBlockCyclic(default_distribution(graph, ranks).grid)
    else:
        dist = OneDBlockCyclic(ranks, axis="row")
    if rates is None:
        machine = MachineSpec(
            nodes=ranks, cores_per_node=cores, **machine_kwargs
        )
    else:
        machine = MachineSpec(
            nodes=ranks, cores_per_node=cores, rates=rates, **machine_kwargs
        )
    return simulate(
        graph,
        dist,
        machine,
        scheduler=scheduler,
        collect_trace=collect_trace,
    )


def _rank_hint(kernel: KernelClass, flops: float, b: int) -> int:
    """Invert Table I to recover an approximate rank for the rate model.

    Only the low-rank-output GEMMs need a rank (their efficiency curve
    depends on it); for those, ``flops ≈ 36bk² + 157k³`` is inverted with
    a few Newton steps on the dominant quadratic term.
    """
    if kernel not in (KernelClass.GEMM_LR, KernelClass.GEMM_LR_DENSE):
        return 0
    coef_q = 36.0 * b
    k = max((flops / coef_q) ** 0.5, 1.0)
    for _ in range(3):
        f = coef_q * k * k + 157.0 * k**3 - flops
        df = 2 * coef_q * k + 471.0 * k * k
        k = max(k - f / df, 1.0)
    return int(round(k))
