"""Calibration from recorded runs: rank grids, rank models, kernel rates.

A recorded ``--obs`` run carries everything the autotuner needs to
predict *other* configurations of the same problem family:

* the dependency document (``graph.json``) stores each task's Table-I
  kernel class and modelled flops, from which the **initial rank grid**
  is recovered exactly — a ``(4)-TRSM`` on tile ``(i, j)`` costs
  ``b²·k``, so ``k = flops / b²`` with no rounding ambiguity;
* the recovered grid fits a :class:`~repro.analysis.ranks.RankModel`
  (rank as a power law of sub-diagonal distance) for extrapolating the
  rank structure to tile counts never measured;
* the task spans calibrate :class:`~repro.runtime.machine.MeasuredRates`
  — the mean task duration of each kernel class, and the aggregate
  GFLOP/s for classes no recording exercised;
* the idle gaps between a worker's consecutive task spans calibrate the
  simulated machine's per-task runtime overhead
  (:attr:`~repro.runtime.machine.MachineSpec.task_overhead_s`).

Several runs of the same geometry pool into one :class:`Calibration`
(element-wise max of rank grids — conservative, like Algorithm 1's
per-sub-diagonal maxrank — and pooled task spans).  This is the only
code that turns recordings into simulator inputs: ``tune`` and
``execute --executor sim --calibrate-from`` both read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.ranks import RankModel, paper_rank_model
from ..runtime.machine import MeasuredRates
from ..utils.exceptions import ConfigurationError

__all__ = ["Calibration", "ranks_from_run"]

#: The kernel class whose flops invert exactly to the tile rank.
_TRSM_LR = "(4)-TRSM"


def ranks_from_run(run) -> np.ndarray:
    """Recover the initial rank grid from a recorded run's graph document.

    ``run`` is a :class:`~repro.obs.analytics.RunTrace` whose ``graph``
    holds the :func:`repro.obs.graph_document` of the executed DAG.
    Every off-band tile ``(i, j)`` received one ``(4)-TRSM`` costing
    ``b²·k`` flops, so its initial rank is ``flops / b²`` exactly.
    Tiles inside the recorded band (and the diagonal) report −1 — the
    same convention as :meth:`repro.matrix.BandTLRMatrix.rank_grid`.
    Record calibration runs at ``--band 1`` so every off-diagonal rank
    is visible to the sweep.
    """
    graph = getattr(run, "graph", None)
    if graph is None:
        raise ConfigurationError(
            "run has no recorded dependency graph; record with a graph "
            "executor (e.g. 'repro execute --obs DIR') so graph.json "
            "captures per-task kernels and flops"
        )
    nt = graph.get("ntiles")
    b = graph.get("tile_size")
    if not nt or not b:
        raise ConfigurationError(
            "recorded graph document lacks ntiles/tile_size; re-record "
            "with a current repro version"
        )
    grid = np.full((nt, nt), -1, dtype=np.int64)
    for info in graph.get("tasks", {}).values():
        if info.get("kernel") != _TRSM_LR:
            continue
        i, j = info["out_tile"]
        k = int(round(float(info["flops"]) / (b * b)))
        grid[i, j] = max(grid[i, j], k)
    return grid


def _measured_rates(runs) -> MeasuredRates:
    """Pooled per-class mean task seconds and the aggregate GFLOP/s."""
    from ..obs.analytics import flop_attribution

    durations: dict[str, list[float]] = {}
    flops = secs = 0.0
    for run in runs:
        for kernel, r in flop_attribution(run).items():
            durations.setdefault(kernel, []).extend(r.durations)
            flops += r.flops
            secs += r.seconds
    return MeasuredRates(
        durations={k: float(np.mean(ds)) for k, ds in durations.items()},
        fallback_gflops=(
            flops / secs / 1e9 if flops > 0.0 and secs > 0.0 else 10.0
        ),
    )


def _task_overhead(runs) -> float:
    """Worker seconds the runtime costs per task, from recorded spans.

    The **median** idle gap between consecutive tasks of one worker:
    dispatch, dependency release, the interpreter lock.  The median
    ignores what the simulator models itself (dependency stalls, the
    serial tail) and what no model predicts (lock hand-off timeouts, a
    late-starting worker, a neighbour taking the core): over 24 band-1
    recordings of one problem it reads 41-45 us where the mean gap reads
    47-63 us and the total idle time per task 66-130 us.
    """
    gaps: list[float] = []
    for run in runs:
        by_worker: dict[str, list] = {}
        for t in run.tasks:
            by_worker.setdefault(t.thread, []).append(t)
        for spans in by_worker.values():
            spans.sort(key=lambda t: t.start)
            gaps.extend(b.start - a.end for a, b in zip(spans, spans[1:]))
    return max(float(np.median(gaps)), 0.0) if gaps else 0.0


@dataclass
class Calibration:
    """Everything the sweep needs, fitted from one or more recorded runs."""

    tile_size: int
    ntiles: int
    band_size: int
    rank_grid: np.ndarray
    rank_model: RankModel
    rates: MeasuredRates
    n_workers: int
    meta: dict = field(default_factory=dict)
    sources: tuple[str, ...] = ()
    #: Worker seconds the runtime costs per executed task
    #: (``_task_overhead``: the median dispatch gap).
    #: The sweep and the verifier simulate with it.
    task_overhead_s: float = 0.0

    @classmethod
    def from_runs(cls, runs, *, sources: tuple[str, ...] = ()) -> "Calibration":
        """Pool several recorded runs of one geometry into a calibration.

        All runs must agree on ``(ntiles, tile_size)``; their rank grids
        merge element-wise max (conservative, matching Algorithm 1's
        per-sub-diagonal maxrank) and their task spans pool into one
        :class:`MeasuredRates` and one per-task overhead.  Raises
        :class:`ConfigurationError` on geometry mismatch.

        The runs may differ in *band size* — deliberately.  A band-1
        run exposes every tile's initial rank but exercises no dense
        off-diagonal kernel class, so a sweep that densifies predicts
        those classes from the flops fallback (badly: dense BLAS-3
        sustains far higher GFLOP/s than rank-k updates).  Pooling the
        band-1 run with one recorded at the tuned band covers both
        regimes: ranks from the former, dense-class durations from the
        latter.  See docs/tuning.md's refinement loop.
        """
        if not runs:
            raise ConfigurationError(
                "Calibration.from_runs needs at least one recorded run"
            )
        grids = []
        bands = []
        geom = None
        for run in runs:
            g = ranks_from_run(run)
            doc = run.graph
            this = (doc["ntiles"], doc["tile_size"])
            if geom is None:
                geom = this
            elif this != geom:
                raise ConfigurationError(
                    f"calibration runs disagree on geometry: "
                    f"(ntiles, tile) {geom} vs {this}"
                )
            bands.append(int(doc.get("band_size") or 1))
            grids.append(g)
        nt, b = geom
        # The smallest recorded band has the widest LR coverage; it is
        # the calibration's nominal band (the rank grid merge fills any
        # in-band entries the wider-band runs left dense).
        band = min(bands)
        grid = np.maximum.reduce(grids)
        try:
            model = RankModel.fit(grid, b)
        except ConfigurationError:
            # Too few populated sub-diagonals (tiny smoke runs): fall
            # back to the paper-calibrated constants at the recorded ε.
            accuracy = float(runs[0].meta.get("accuracy", 1e-8) or 1e-8)
            model = paper_rank_model(b, accuracy=accuracy)
        return cls(
            tile_size=b,
            ntiles=nt,
            band_size=band if band else 1,
            rank_grid=grid,
            rank_model=model,
            rates=_measured_rates(runs),
            n_workers=max(run.n_workers for run in runs),
            meta=dict(runs[0].meta),
            sources=tuple(sources),
            task_overhead_s=_task_overhead(runs),
        )

    def rank_fn(self, ntiles: int):
        """A graph-builder ``RankFn`` for a target tile count.

        At the recorded tile count the exact measured grid answers
        (dense/unknown entries clamp to rank 1, matching how the CLI
        builds graphs from measured grids); at any other tile count the
        fitted power-law model extrapolates.
        """
        if ntiles == self.ntiles:
            grid = self.rank_grid

            def exact(i: int, j: int) -> int:
                return int(max(grid[i, j], 1))

            return exact
        return self.rank_model

    def rank_grid_for(self, ntiles: int) -> np.ndarray:
        """A band-1 rank grid at ``ntiles`` (measured or extrapolated)."""
        if ntiles == self.ntiles:
            return self.rank_grid
        return self.rank_model.to_rank_grid(ntiles)
