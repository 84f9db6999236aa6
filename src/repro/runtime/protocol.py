"""One ``Executor`` protocol over the in-process, process, and DES backends.

Every factorization runs a Cholesky
:class:`~repro.runtime.graph.TaskGraph` on one of two numerical
backends — the in-process core (:mod:`repro.runtime.executor`: one worker
loop, inline at one worker and on threads above) or a true multi-process
executor with explicit communication (:mod:`repro.runtime.distributed`)
— and a discrete-event simulator predicts the same graph
(:mod:`repro.runtime.simulator`).  Their call signatures differ
(``n_workers`` vs ``n_ranks`` vs ``dist``/``machine``), which would make
"run the same problem on another backend" a rewrite instead of an
argument change.

This module pins them behind one submit-graph protocol::

    run = get_executor("processes", n_ranks=4).execute(graph, matrix)
    run.report.makespan, run.report.trace, run.report.comm ...

Every backend accepts the same resilience/observability surface
(``faults``/``recovery``/``checkpoint``/``resume`` and the ambient
:mod:`repro.obs` observation) — except the simulator, which *predicts*
rather than executes and therefore rejects resilience kwargs and leaves
the matrix untouched (``run.predicted`` is ``True``).  Checkpoints are
interchangeable across the numerical backends: a run interrupted under
one executor resumes under any other.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..utils.exceptions import ConfigurationError
from .graph import TaskGraph

__all__ = [
    "Executor",
    "ExecutorRun",
    "ThreadExecutor",
    "ProcessExecutor",
    "SimExecutor",
    "get_executor",
    "EXECUTOR_NAMES",
]


@dataclass
class ExecutorRun:
    """Outcome of one ``Executor.execute`` call.

    Attributes
    ----------
    executor:
        The backend that produced the run (``"threads"``,
        ``"processes"``, ``"sim"``).
    report:
        The backend's native report — an
        :class:`~repro.runtime.executor.ExecutionReport`,
        :class:`~repro.runtime.distributed.DistributedExecutionReport`,
        or :class:`~repro.runtime.simulator.SimResult`.  Unknown
        attribute reads on the run fall through to it, so analysis code
        written against one report keeps working against the run.
    predicted:
        ``True`` when the backend only modelled the execution (the DES);
        the matrix then still holds the *unfactorized* input.
    """

    executor: str
    report: object
    predicted: bool = False

    def __getattr__(self, item):
        # Only reached for attributes not set on the run itself.
        return getattr(self.report, item)


class Executor(ABC):
    """A backend that runs (or models) a task graph against a matrix."""

    #: Registry name, also recorded on every :class:`ExecutorRun`.
    name: str = "abstract"

    @abstractmethod
    def execute(
        self,
        graph: TaskGraph,
        matrix,
        *,
        rule=None,
        use_pool: bool = True,
        collect_trace: bool = False,
        faults=None,
        recovery=None,
        checkpoint=None,
        resume: bool = False,
    ) -> ExecutorRun:
        """Run ``graph`` against ``matrix``; see the backend modules for
        parameter semantics (they are shared verbatim)."""


class ThreadExecutor(Executor):
    """The in-process core (:func:`execute_graph_parallel`): one worker
    loop, inline at ``n_workers=1`` and on threads above."""

    name = "threads"

    def __init__(self, n_workers: int | None = None,
                 scheduler: str = "priority"):
        self.n_workers = n_workers
        self.scheduler = scheduler

    def execute(self, graph, matrix, *, rule=None, use_pool=True,
                collect_trace=False, faults=None, recovery=None,
                checkpoint=None, resume=False) -> ExecutorRun:
        from .executor import execute_graph_parallel

        report = execute_graph_parallel(
            graph, matrix, n_workers=self.n_workers, rule=rule,
            use_pool=use_pool, scheduler=self.scheduler,
            collect_trace=collect_trace, faults=faults, recovery=recovery,
            checkpoint=checkpoint, resume=resume,
        )
        return ExecutorRun(executor=self.name, report=report)


class ProcessExecutor(Executor):
    """Multi-process ranks with explicit communication
    (:func:`execute_graph_distributed`)."""

    name = "processes"

    def __init__(self, n_ranks: int | None = None, distribution=None,
                 timeout_s: float | None = 300.0, max_restarts: int = 2):
        self.n_ranks = n_ranks
        self.distribution = distribution
        self.timeout_s = timeout_s
        self.max_restarts = max_restarts

    def execute(self, graph, matrix, *, rule=None, use_pool=True,
                collect_trace=False, faults=None, recovery=None,
                checkpoint=None, resume=False) -> ExecutorRun:
        from .distributed import execute_graph_distributed

        report = execute_graph_distributed(
            graph, matrix, n_ranks=self.n_ranks,
            distribution=self.distribution, rule=rule, use_pool=use_pool,
            collect_trace=collect_trace, faults=faults, recovery=recovery, checkpoint=checkpoint, resume=resume,
            timeout_s=self.timeout_s, max_restarts=self.max_restarts,
        )
        return ExecutorRun(executor=self.name, report=report)


class SimExecutor(Executor):
    """Discrete-event prediction (:func:`simulate`) behind the protocol.

    The simulator models; it never touches the matrix, so
    ``run.predicted`` is ``True`` and resilience kwargs are rejected —
    there is nothing to retry or checkpoint in a prediction.  The
    default machine is one single-core node per rank with the
    Shaheen-II-like network, which is the lane layout the numerical
    executors report (``nodes = ranks``, ``cores_per_node = 1``) — pass
    ``machine`` (e.g. from :func:`~repro.runtime.calibration
    .calibrate_machine` or with :class:`~repro.tune.Calibration`'s
    rates and overhead) to predict with measured kernel costs.
    """

    name = "sim"

    def __init__(self, n_ranks: int | None = None, distribution=None,
                 machine=None, scheduler: str = "priority"):
        self.n_ranks = n_ranks
        self.distribution = distribution
        self.machine = machine
        self.scheduler = scheduler

    def execute(self, graph, matrix, *, rule=None, use_pool=True,
                collect_trace=False, faults=None, recovery=None,
                checkpoint=None, resume=False) -> ExecutorRun:
        if faults is not None or recovery is not None \
                or checkpoint is not None or resume:
            raise ConfigurationError(
                "the sim executor predicts a run; faults/recovery/"
                "checkpoint/resume only apply to numerical executors"
            )
        from ..distribution.distributions import default_distribution
        from .machine import SHAHEEN_II_LIKE
        from .simulator import simulate

        dist = self.distribution
        if dist is None:
            dist = default_distribution(graph, self.n_ranks or 2)
        machine = self.machine
        if machine is None:
            machine = dataclasses.replace(
                SHAHEEN_II_LIKE, nodes=dist.nprocs, cores_per_node=1
            )
        elif machine.nodes != dist.nprocs:
            raise ConfigurationError(
                f"machine has {machine.nodes} nodes but the distribution "
                f"targets {dist.nprocs} ranks"
            )
        result = simulate(
            graph, dist, machine,
            collect_trace=collect_trace, scheduler=self.scheduler,
        )
        return ExecutorRun(executor=self.name, report=result, predicted=True)


#: Registry names (the CLI's ``execute --executor`` choices).
EXECUTOR_NAMES = ("threads", "processes", "sim")


def get_executor(spec, **kwargs) -> Executor:
    """Resolve an executor spec: an instance or a registry name.

    ``kwargs`` are forwarded to the named executor's constructor
    (``n_workers``/``scheduler`` for threads, ``n_ranks``/
    ``distribution``/... for processes and sim); a keyword the named
    executor does not take, or any keyword with an instance (configure
    the instance instead), is a :class:`ConfigurationError`.
    """
    if isinstance(spec, Executor):
        if kwargs:
            raise ConfigurationError(
                "cannot pass constructor kwargs with an executor instance"
            )
        return spec
    classes = {
        ThreadExecutor.name: ThreadExecutor,
        ProcessExecutor.name: ProcessExecutor,
        SimExecutor.name: SimExecutor,
    }
    try:
        cls = classes[spec]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown executor {spec!r}; available: {sorted(classes)}"
        ) from None
    try:
        return cls(**kwargs)
    except TypeError as exc:  # e.g. n_ranks for the thread executor
        raise ConfigurationError(
            f"executor {spec!r} does not accept {sorted(kwargs)}: {exc}"
        ) from None
