"""Task model for the tile-Cholesky parameterized task graph.

PaRSEC's PTG describes the Cholesky DAG with four parameterized task
classes; we mirror them:

* ``POTRF(k)``        — factor diagonal tile ``(k, k)``;
* ``TRSM(m, k)``      — panel solve on tile ``(m, k)``, ``m > k``;
* ``SYRK(n, k)``      — diagonal update of ``(n, n)`` from panel ``k``;
* ``GEMM(m, n, k)``   — off-diagonal update of ``(m, n)``, ``m > n > k``.

Task identity is the tuple ``(kind, indices...)``, hashable and compact.
Each task records the Table-I kernel class it will execute and its modelled
flops; the graph builder (:mod:`repro.runtime.graph`) wires dependencies.

Dataflow edges carry the tile that flows and its element count; Section
VII-A's LOCAL/REMOTE classification is a function of the data distribution
and lives on the edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..linalg.flops import KernelClass

__all__ = [
    "TaskKind",
    "TaskId",
    "Task",
    "Edge",
    "EdgeKind",
    "task_sort_key",
    "task_name",
]


def task_name(tid: "TaskId") -> str:
    """Canonical human-readable task id, e.g. ``GEMM_3_1_0``.

    The single naming scheme shared by the executors' trace spans, the
    ``graph.json`` dependency export, and the analytics layer's
    span-to-DAG join — change it in one place or the join breaks.
    """
    return "_".join([tid[0].name, *(str(x) for x in tid[1:])])


class TaskKind(Enum):
    """The four parameterized task classes of the Cholesky PTG."""

    POTRF = "POTRF"
    TRSM = "TRSM"
    SYRK = "SYRK"
    GEMM = "GEMM"

    # Members are singletons, so identity hashes them.  ``Enum``'s own
    # ``__hash__`` is Python code, and every task id hashes its kind: the
    # execution core's bookkeeping made ~100k such calls per step.
    __hash__ = object.__hash__


#: Task identity: ``(TaskKind, *indices)`` — POTRF(k), TRSM(m,k),
#: SYRK(n,k), GEMM(m,n,k).
TaskId = tuple


class EdgeKind(Enum):
    """LOCAL edges connect tasks on one process; REMOTE edges post
    communications (Section VII-A)."""

    LOCAL = "local"
    REMOTE = "remote"


@dataclass(frozen=True)
class Edge:
    """A dataflow dependency ``src -> dst`` carrying one tile.

    Attributes
    ----------
    src, dst:
        Task ids.
    tile:
        The ``(i, j)`` index of the tile whose data flows along the edge.
    elements:
        Number of float64 elements transferred (``b²`` dense, ``2bk``
        compressed) — 0 for pure ordering edges.
    """

    src: TaskId
    dst: TaskId
    tile: tuple[int, int]
    elements: int


# Execution-priority order of kinds within one panel: the factorization
# kernels on the critical path go first.
_KIND_ORDER = {
    TaskKind.POTRF: 0,
    TaskKind.TRSM: 1,
    TaskKind.SYRK: 2,
    TaskKind.GEMM: 3,
}


@dataclass
class Task:
    """One schedulable tile task.

    Attributes
    ----------
    tid:
        Identity tuple ``(kind, *indices)``.
    kind:
        Task class.
    kernel:
        The Table-I kernel class this task executes (depends on the band
        layout and operand formats).
    flops:
        Modelled flops.
    out_tile:
        Tile ``(i, j)`` the task writes.
    deps:
        Incoming edges.
    panel:
        The panel index ``k`` the task belongs to (drives the scheduling
        priority; nested sub-tasks inherit their parent's panel).
    rank_hint:
        Representative operand rank for low-rank kernels (drives the
        simulator's throughput curve); 0 for dense kernels.
    """

    tid: TaskId
    kind: TaskKind
    kernel: KernelClass
    flops: float
    out_tile: tuple[int, int]
    deps: list[Edge] = field(default_factory=list)
    panel: int = 0
    rank_hint: int = 0


def task_sort_key(task: Task) -> tuple:
    """Default scheduling priority: earlier panel first, then POTRF >
    TRSM > SYRK > GEMM, then lexicographic indices.

    This mirrors PaRSEC's priority hints for Cholesky: panel tasks are
    promoted so the next panel is discovered as early as possible
    (lookahead), which Section VII-D identifies as the makespan driver.

    The identity elements are stringified so keys stay totally ordered
    even for the fork/sub/join ids of recursive expansions.
    """
    return (
        task.panel,
        _KIND_ORDER[task.kind],
        tuple(str(x) for x in task.tid),
    )
