"""Close the loop: execute the chosen configuration and grade the DES.

The sweep's winner is a *prediction*; this module executes that exact
configuration for real, rebuilds both sides as
:class:`~repro.obs.analytics.RunTrace` objects over the same task
graph, and gates the prediction two ways:

* :func:`repro.obs.analytics.prediction_accuracy` — signed relative
  errors on makespan (task window), realized critical path, and mean
  occupancy; the makespan error must land inside the documented
  tolerance (see ``docs/tuning.md`` for how it was chosen);
* :func:`repro.obs.analytics.trace_diff` — the same dual relative+IQR
  per-kernel-class rule ``python -m repro compare`` applies, predicted
  as base and realized as head, so a kernel class the simulator
  modelled too optimistically trips the same gate a perf regression
  would.

The realized factorization's bytes are digested (SHA-256 over the
lower-triangular dense factor) so the emitted config can be checked to
reproduce the run bitwise through ``repro execute --config``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from ..obs.analytics import (
    PredictionAccuracy,
    RunTrace,
    TaskSpan,
    prediction_accuracy,
    trace_diff,
)
from .calibrate import Calibration
from .sweep import TuneResult

__all__ = [
    "DEFAULT_TOLERANCE",
    "VerifyReport",
    "predicted_run",
    "record_run",
    "factor_digest",
    "verify_prediction",
]

#: Documented makespan tolerance (relative, symmetric).  CI-scale runs
#: are short enough that scheduler jitter and interpreter overhead are a
#: visible fraction of the window; docs/tuning.md records the
#: methodology behind the 50% default and when to tighten it.
DEFAULT_TOLERANCE = 0.5


def predicted_run(graph, sim) -> RunTrace:
    """A :class:`RunTrace` view of a simulated schedule.

    Spans replay the DES trace (one per task, threads named
    ``rank-<p>``), annotated with each task's kernel class and modelled
    flops; the dependency document rides along so the analytics layer
    computes the predicted critical path exactly like a realized one.
    """
    from ..obs import graph_document
    from ..runtime.task import task_name

    if sim.trace is None:
        raise ValueError(
            "simulated run carries no trace; simulate with "
            "collect_trace=True"
        )
    # The DES records which *process* ran a task but not which core;
    # recover core slots by greedy interval partitioning per rank so
    # thread-level metrics (occupancy above all) stay in [0, 1] and
    # compare meaningfully against a realized run's worker threads.
    slot_free: dict[tuple[int, int], float] = {}
    tasks = []
    for tid, proc, start, end in sorted(
        sim.trace, key=lambda rec: (rec[2], rec[3], str(rec[0]))
    ):
        slot = 0
        while slot_free.get((proc, slot), 0.0) > start + 1e-15:
            slot += 1
        slot_free[(proc, slot)] = end
        tasks.append(
            TaskSpan(
                name=task_name(tid),
                start=float(start),
                end=float(end),
                thread=f"rank-{proc}-c{slot}",
                kernel=graph.tasks[tid].kernel.value,
                flops=float(graph.tasks[tid].flops),
            )
        )
    return RunTrace(
        tasks=tasks,
        graph=graph_document(graph, task_name),
        wall_s=float(sim.makespan),
        meta={"predicted": True},
    )


def factor_digest(matrix) -> str:
    """SHA-256 of the factorized matrix's lower-triangular dense bytes."""
    dense = matrix.to_dense(lower_only=True)
    return "sha256:" + hashlib.sha256(dense.tobytes()).hexdigest()


@dataclass
class VerifyReport:
    """Predicted-vs-realized verdict for the sweep's winner."""

    accuracy: PredictionAccuracy
    tolerance: float
    within_tolerance: bool
    diff_regressed: bool
    factor_digest: str
    realized_wall_s: float

    @property
    def gate_passed(self) -> bool:
        """Both conditions: tolerance met AND no dual-gate regression."""
        return self.within_tolerance and not self.diff_regressed

    def to_dict(self) -> dict:
        a = self.accuracy
        return {
            "tolerance": self.tolerance,
            "within_tolerance": self.within_tolerance,
            "diff_regressed": self.diff_regressed,
            "gate_passed": self.gate_passed,
            "factor_digest": self.factor_digest,
            "realized_wall_s": self.realized_wall_s,
            "predicted_makespan_s": a.predicted_makespan_s,
            "realized_makespan_s": a.realized_makespan_s,
            "makespan_rel_err": a.makespan_rel_err,
            "predicted_cp_s": a.predicted_cp_s,
            "realized_cp_s": a.realized_cp_s,
            "cp_rel_err": a.cp_rel_err,
            "predicted_occupancy": a.predicted_occupancy,
            "realized_occupancy": a.realized_occupancy,
            "occupancy_abs_err": a.occupancy_abs_err,
        }


def record_run(run: RunTrace, ob, *, t0: float = 0.0) -> None:
    """Replay ``run``'s task spans (shifted by ``t0``) and graph document
    into the :class:`~repro.obs.Observation` ``ob``."""
    ob.graph = run.graph
    for t in run.tasks:
        ob.tracer.record(
            t.name,
            "task",
            t0 + t.start,
            t0 + t.end,
            thread=t.thread,
            kernel=t.kernel,
            flops=t.flops,
        )


def _write_trace_dir(run: RunTrace, outdir, meta: dict) -> None:
    """Persist a RunTrace as standard --obs artifacts (for repro compare)."""
    from .. import obs

    ob = obs.Observation(meta=meta)
    record_run(run, ob)
    ob._wall = max(run.wall_s, run.window_s)
    ob.write(outdir)


def verify_prediction(
    calibration: Calibration,
    result: TuneResult,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    threshold: float = 0.25,
    obs_out: str | Path | None = None,
) -> VerifyReport:
    """Execute the sweep winner for real and grade the DES prediction.

    Rebuilds the problem from the result's recorded parameters at the
    winning band, re-simulates the winner (deterministic — identical to
    the sweep's evaluation), executes the same graph on the real
    executor the config names, and compares.  With ``obs_out`` the
    predicted and realized traces are written as standard ``--obs``
    artifact directories (``<obs_out>/predicted``, ``<obs_out>/
    realized``) so ``python -m repro compare`` can re-run the gate
    standalone.
    """
    from .. import obs
    from ..matrix import BandTLRMatrix
    from ..obs.analytics import run_from_observation
    from ..runtime import (
        execute_graph_distributed,
        execute_graph_parallel,
        graph_for_matrix,
    )
    from ..runtime.simulator import simulate_schedule
    from repro import TruncationRule, st_3d_exp_problem

    cfg = result.config()
    w = result.winner.candidate
    problem = st_3d_exp_problem(cfg["n"], cfg["tile"], seed=cfg["seed"])
    matrix = BandTLRMatrix.from_problem(
        problem,
        TruncationRule(eps=cfg["accuracy"]),
        band_size=cfg["band"],
        n_workers=cfg["workers"],
    )
    graph = graph_for_matrix(matrix)

    sim = simulate_schedule(
        graph,
        ranks=w.ranks,
        cores=w.cores,
        rates=calibration.rates,
        scheduler=w.scheduler,
        distribution=w.distribution,
        collect_trace=True,
        task_overhead_s=calibration.task_overhead_s,
    )
    predicted = predicted_run(graph, sim)

    with obs.observe(meta={"verify": True, **cfg}) as ob:
        if cfg["executor"] == "processes":
            execute_graph_distributed(graph, matrix, n_ranks=w.ranks)
        else:
            execute_graph_parallel(
                graph, matrix, n_workers=w.cores, scheduler=w.scheduler
            )
    realized = run_from_observation(ob)

    if obs_out is not None:
        outdir = Path(obs_out)
        _write_trace_dir(
            predicted, outdir / "predicted", {"side": "predicted", **cfg}
        )
        ob.write(outdir / "realized")

    acc = prediction_accuracy(predicted, realized)
    diff = trace_diff(predicted, realized, threshold=threshold)
    return VerifyReport(
        accuracy=acc,
        tolerance=tolerance,
        within_tolerance=acc.within(tolerance),
        diff_regressed=diff.has_regression,
        factor_digest=factor_digest(matrix),
        realized_wall_s=realized.wall_s,
    )
