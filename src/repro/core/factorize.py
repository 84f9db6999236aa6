"""BAND-DENSE-TLR Cholesky factorization.

The tile algorithm of Fig. 4, run as a task graph
(:func:`~repro.runtime.graph.graph_for_matrix`) on an executor — the
in-process execution core by default, at one inline worker — as PaRSEC
runs its PTG.  The same algorithm written out as straight loops is
:func:`repro.testing.reference.reference_cholesky`, the differential
oracle the bitwise suites hold every executor to.  One graph covers all
the paper's layouts through the matrix's per-tile formats: pure TLR
(band 1), BAND-DENSE-TLR (band B), fully dense (band NT), and any
per-tile dense/low-rank map (§IX's tile-based generalization, which a
deferred assembly decides where each tile is born).

Where this departs from the paper: HCORE_DGEMM rounds a low-rank tile
once per (tile, panel) pair — O(NT³) roundings for O(NT²) tiles, 68-83 %
of a factorization here.  Low-rank tiles are instead updated
**left-looking and fused** (H2OPUS-TLR's accumulate-then-round,
PAPERS.md 2108.11932): just before its TRSM a tile takes every panel
product at once and the sum is rounded once.  Dense tiles keep the
right-looking order, and their bits.  The factor is therefore not the
right-looking factor bit for bit; what holds instead
(``tests/test_fused_update.py``): it is deterministic and bitwise
identical across the reference loops, every worker and rank count and a
resumed run; its backward error stays within 10·ε of the dense oracle and
within 1.5x of the per-update factor's (the right-looking graph,
``build_cholesky_graph``'s default, executed through the same kernel);
and no final rank exceeds the per-update one by more than max(2, 5 %).

An MLE step goes one further: it never looks at the unfactorized matrix,
so ``BandTLRMatrix.from_problem`` with ``defer`` leaves every off-band tile
of columns ``j >= 1`` pending, and the fused update forms the
*expression* ``A_mn − Σ_j L_mj L_njᵀ`` with the generated kernel block as
``A_mn``.  That block is where the tile's format is decided
(:func:`~repro.linalg.tiles.keep_dense`, rank ≥ ⌈b/3⌉ stays dense): a
tile the previous step's factor marks dense keeps it without a
compression, any other is compressed once — compression after the
update, not before it and again at the wide rounding.  Where ε clears
:data:`~repro.linalg.precision.FP32_EPS_FLOOR` a tile that is to be
compressed is cast to float32 once after its generation, and updated and
compressed in single precision; dense tiles stay float64.  A low-rank tile
whose panel operands are both dense takes them as width-``b`` factors, so
every dense/low-rank map is valid.  The in-process core consumes pending
tiles natively (bitwise alike at any worker count); the runs that ship or
persist tiles ``realize()`` the matrix first and are then the eager call
on the same formats, bit for bit.

The factor overwrites the matrix: dense tiles hold dense ``L`` blocks
(diagonal tiles lower-triangular), compressed tiles hold compressed
blocks of ``L``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .. import obs
from ..linalg.compression import TruncationRule
from ..linalg.flops import FlopCounter
from ..linalg.precision import MixedPrecisionReport, mixed_precision_report
from ..linalg.tiles import DenseTile, LowRankTile, PendingTile
from ..matrix.tlr_matrix import BandTLRMatrix
from ..utils.exceptions import (
    ConfigurationError,
    NotPositiveDefiniteError,
    RuntimeSystemError,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..runtime.resilience import ResilienceReport
    from ..runtime.simulator import CommStats

__all__ = ["FactorizationReport", "tlr_cholesky"]


@dataclass
class FactorizationReport:
    """Statistics of one factorization run.

    Attributes
    ----------
    counter:
        Modelled flops by kernel class (Table I, actual ranks).
    rank_growth_events:
        Recompressions whose output rank exceeded the destination's
        previous rank (each would trigger a pool reallocation).
    max_rank_seen:
        Largest compressed-tile rank observed (final maxrank, Fig. 1); a
        tile born dense has no rank and does not count.
    tiles_densified_online:
        Pending tiles of a deferred assembly that were born dense.
    tasks_resumed:
        Tasks skipped because a restored checkpoint had completed them
        (0 unless ``resume=True`` found a checkpoint).
    resilience:
        Recovery-engine counters (``None`` unless faults, a recovery
        policy, or checkpointing was requested).
    executor:
        Which backend ran the factorization (``"threads"`` or
        ``"processes"``; ``"reference"`` from the tests' oracle loops).
    comm:
        Realized communication statistics (``None`` except on the
        process executor, whose ranks exchange tiles explicitly).
    precision_report:
        Post-factorization byte accounting of the factor's storage
        dtypes (off-band low-rank tiles are float32 when ε allows); see
        :class:`~repro.linalg.precision.MixedPrecisionReport`.
    """

    counter: FlopCounter = field(default_factory=FlopCounter)
    rank_growth_events: int = 0
    max_rank_seen: int = 0
    tiles_densified_online: int = 0
    tasks_resumed: int = 0
    resilience: "ResilienceReport | None" = None
    executor: str = "threads"
    comm: "CommStats | None" = None
    precision_report: MixedPrecisionReport | None = None


def tlr_cholesky(
    matrix: BandTLRMatrix,
    *,
    rule: TruncationRule | None = None,
    n_workers: int | None = None,
    executor=None,
    n_ranks: int | None = None,
    faults=None,
    recovery=None,
    checkpoint=None,
    resume: bool = False,
) -> FactorizationReport:
    """Factorize ``matrix`` in place into its lower Cholesky factor.

    Parameters
    ----------
    matrix:
        SPD matrix in BAND-DENSE-TLR storage; overwritten by ``L``.
    rule:
        Truncation rule for the low-rank updates; defaults to the
        matrix's compression rule.  Each low-rank tile is rounded under
        it once, after all of its panel updates were accumulated (module
        docstring): the stacked QR-QR-SVD while the accumulated width is
        below half a tile, the compressor's ``compress`` of the dense sum
        beyond it, seeded by the tile's coordinates.
    n_workers:
        Workers of the dependency-driven execution core
        (:mod:`repro.runtime.executor`) that run the fused DAG
        (:func:`~repro.runtime.graph.graph_for_matrix`, built from the
        matrix's measured ranks): worker 0 on the calling thread, the
        others on threads of their own.  Default 1, inline.  The factor
        is bitwise identical for any worker count.
    executor:
        A :class:`~repro.runtime.protocol.Executor` instance or registry
        name (``"threads"``, ``"processes"``) selecting the backend
        explicitly — the multi-process executor is only reachable this
        way.  Mutually exclusive with ``n_workers`` (which
        is shorthand for the thread executor); the ``"sim"`` executor is
        rejected because it predicts a run without factorizing.
    n_ranks:
        Rank count for a *named* ``executor`` (worker processes for
        ``"processes"``, worker threads for ``"threads"``); pass a
        configured instance instead for finer control.
    faults:
        Fault-injection source (spec string, ``FaultPlan``, or injector —
        see :mod:`repro.testing.faults`); implies the recovery engine of
        :mod:`repro.runtime.resilience`.
    recovery:
        A :class:`~repro.runtime.resilience.RecoveryPolicy` controlling
        retries, NaN validation, NPD diagonal shifts, and the watchdog.
    checkpoint:
        Checkpoint directory (or ``CheckpointConfig``/``Checkpointer``):
        the completed-panel frontier is persisted there so a killed run
        can restart.
    resume:
        Restore the latest checkpoint from ``checkpoint`` before
        factorizing; completed tasks are skipped and the final factor is
        identical to an uninterrupted run.

    Returns
    -------
    FactorizationReport

    Raises
    ------
    NotPositiveDefiniteError
        When a diagonal tile loses positive definiteness (accuracy
        threshold too loose relative to the matrix's conditioning) —
        however the factorization runs: from a worker thread or a rank it
        is re-raised as itself, the executor's
        :class:`~repro.utils.exceptions.RuntimeSystemError` chained.
    """
    rule = rule or matrix.rule
    if executor is not None and n_workers is not None:
        raise ConfigurationError(
            "n_workers is shorthand for executor='threads'; "
            "pass one or the other, not both"
        )
    if n_ranks is not None and executor is None:
        raise ConfigurationError("n_ranks requires an executor name")
    if resume and checkpoint is None:
        raise ConfigurationError("resume=True requires a checkpoint directory")
    # Local import: repro.runtime must stay importable without repro.core.
    from ..runtime.graph import graph_for_matrix
    from ..runtime.protocol import ThreadExecutor, get_executor

    if executor is None:
        ex = ThreadExecutor(n_workers=1 if n_workers is None else n_workers)
    else:
        # n_ranks maps onto whichever worker knob the named backend has.
        key = "n_workers" if executor == "threads" else "n_ranks"
        ex = get_executor(executor, **({} if n_ranks is None else {key: n_ranks}))
    if ex.name == "sim":
        raise ConfigurationError(
            "the sim executor predicts a run without factorizing; use "
            "repro.runtime.protocol.SimExecutor (or `repro execute "
            "--executor sim`) directly for predictions"
        )
    pending = [
        ij for ij, tile in matrix.tiles.items() if isinstance(tile, PendingTile)
    ]
    with obs.span(
        "tlr_cholesky",
        "phase",
        nt=matrix.ntiles,
        band_size=matrix.band_size,
        workers=n_workers,
    ) as span:
        if ex.name == "processes" or checkpoint is not None:
            matrix.realize()  # pending tiles are not shipped or persisted
        try:
            run = ex.execute(
                graph_for_matrix(matrix), matrix,
                rule=rule, faults=faults,
                recovery=recovery, checkpoint=checkpoint, resume=resume,
            )
        except RuntimeSystemError as exc:
            # A matrix that is not SPD is the caller's to handle (an MLE
            # step scores it −inf), not a runtime failure, on any worker
            # or rank.
            npd = exc.__cause__
            if isinstance(npd, NotPositiveDefiniteError):
                raise NotPositiveDefiniteError(
                    str(npd), npd.tile_index
                ) from exc
            raise
        report = FactorizationReport(
            counter=run.counter,
            rank_growth_events=run.rank_growth_events,
            max_rank_seen=run.max_rank_seen,
            tasks_resumed=run.tasks_resumed,
            resilience=run.resilience,
            executor=run.executor,
            comm=getattr(run.report, "comm", None),
        )
        report.tiles_densified_online = sum(
            isinstance(matrix.tiles[ij], DenseTile) for ij in pending
        )
        pr = report.precision_report = mixed_precision_report(matrix)
        span.set(
            tiles_born_dense=report.tiles_densified_online,
            lowrank_tiles=pr.lowrank_tiles,
            fp32_tiles=pr.demoted_tiles,
        )
    if obs.enabled():
        obs.gauge_set("rank_growth_events", report.rank_growth_events)
        obs.gauge_set("max_rank_seen", report.max_rank_seen)
        for tile in matrix.tiles.values():
            if isinstance(tile, LowRankTile):
                obs.histogram_observe("tile_rank", tile.rank, stage="factorized")
    return report
