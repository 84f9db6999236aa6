"""The task runtime (PaRSEC substitute): graphs, executor, simulator."""

from .calibration import (
    calibrate_machine,
    measure_dense_gflops,
    measure_lr_efficiency,
)
from .dataflow import DataflowBreakdown, classify_dataflow, to_dot
from .distributed import (
    DistributedExecutionReport,
    binomial_children,
    execute_graph_distributed,
    placement_of,
)
from .executor import ExecutionReport, execute_graph_parallel
from .graph import (
    TaskGraph,
    build_cholesky_graph,
    classify_gemm,
    graph_for_matrix,
)
from .machine import SHAHEEN_II_LIKE, KernelRateModel, MachineSpec, MeasuredRates
from .memory_pool import MemoryPool, PoolStats
from .parallel import (
    ThreadSafeFlopCounter,
    ThreadSafeMemoryPool,
    ThreadSafeMemoryTracker,
)
from .resilience import (
    CheckpointConfig,
    Checkpointer,
    RecoveryManager,
    RecoveryPolicy,
    ResilienceReport,
)
from .simulator import CommStats, SimResult, simulate, simulate_schedule
from .solve_graph import SolveKind, build_solve_graph
from .task import Edge, EdgeKind, Task, TaskKind, task_sort_key
from .workpool import default_workers, parallel_map

__all__ = [
    "DataflowBreakdown",
    "classify_dataflow",
    "to_dot",
    "calibrate_machine",
    "measure_dense_gflops",
    "measure_lr_efficiency",
    "DistributedExecutionReport",
    "binomial_children",
    "execute_graph_distributed",
    "placement_of",
    "TaskGraph",
    "build_cholesky_graph",
    "graph_for_matrix",
    "classify_gemm",
    "ExecutionReport",
    "MachineSpec",
    "KernelRateModel",
    "MeasuredRates",
    "SHAHEEN_II_LIKE",
    "MemoryPool",
    "PoolStats",
    "ThreadSafeFlopCounter",
    "ThreadSafeMemoryPool",
    "ThreadSafeMemoryTracker",
    "execute_graph_parallel",
    "CheckpointConfig",
    "Checkpointer",
    "RecoveryManager",
    "RecoveryPolicy",
    "ResilienceReport",
    "CommStats",
    "SimResult",
    "simulate",
    "simulate_schedule",
    "SolveKind",
    "build_solve_graph",
    "Task",
    "TaskKind",
    "Edge",
    "EdgeKind",
    "task_sort_key",
    "default_workers",
    "parallel_map",
]
