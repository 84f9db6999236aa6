"""Sequential reference BAND-DENSE-TLR Cholesky factorization.

The tile algorithm of Fig. 4, executed as straight loops — the numerical
ground truth the runtime's execution core is validated against.  One code
path covers all the paper's layouts through the matrix's per-tile
formats: pure TLR (band 1), BAND-DENSE-TLR (band B), fully dense
(band NT), and any per-tile dense/low-rank map (§IX's tile-based
generalization, which a deferred assembly decides where each tile is
born).

Where this departs from the paper: HCORE_DGEMM rounds a low-rank tile
once per (tile, panel) pair — O(NT³) roundings for O(NT²) tiles, 68-83 %
of a factorization here.  Low-rank tiles are instead updated
**left-looking and fused** (H2OPUS-TLR's accumulate-then-round,
PAPERS.md 2108.11932): just before its TRSM a tile takes every panel
product at once and the sum is rounded once.  Dense tiles keep the
right-looking order, and their bits.  The factor is therefore not the
right-looking factor bit for bit; what holds instead
(``tests/test_fused_update.py``): it is deterministic and bitwise
identical across these loops, every worker and rank count and a resumed
run; its backward error stays within 10·ε of the dense oracle and within
1.5x of the per-update factor's (the right-looking graph,
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
every dense/low-rank map is valid.  The loops and the in-process core
consume pending tiles natively (bitwise alike at any worker count); the
branches that ship or persist tiles ``realize()`` the matrix first and are
then the eager call on the same formats, bit for bit.

The factor overwrites the matrix: dense tiles hold dense ``L`` blocks
(diagonal tiles lower-triangular), compressed tiles hold compressed
blocks of ``L``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .. import obs
from ..linalg import hcore
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
        Which backend ran the factorization (``"sequential"``,
        ``"threads"``, or ``"processes"``).
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
    executor: str = "sequential"
    comm: "CommStats | None" = None
    precision_report: MixedPrecisionReport | None = None


def tlr_cholesky(
    matrix: BandTLRMatrix,
    *,
    rule: TruncationRule | None = None,
    n_workers: int | None = None,
    executor=None,
    n_ranks: int | None = None,
    backend=None,
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
        docstring).
    backend:
        Compression backend for those roundings (instance, registry
        name, or ``None`` to use the matrix's backend): the shared
        QR-QR-SVD while the accumulated width is below half a tile, the
        backend's own ``compress`` of the dense sum beyond it, seeded by
        the tile's coordinates.
    n_workers:
        When set, the factorization runs through the dependency-driven
        execution core (:mod:`repro.runtime.executor`) on that many
        workers (worker 0 on the calling thread, the others on threads of
        their own) instead of
        the sequential loops — the fused DAG
        (:func:`~repro.runtime.graph.graph_for_matrix`) is built from the
        matrix's measured ranks and the factor is bitwise identical to
        the loops' for any worker count.
    executor:
        A :class:`~repro.runtime.protocol.Executor` instance or registry
        name (``"sequential"``, ``"threads"``, ``"processes"``) selecting
        the backend explicitly — ``"sequential"`` is the thread executor
        at one inline worker, and the multi-process executor is only
        reachable this way.  Mutually exclusive with ``n_workers`` (which
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
    backend = backend if backend is not None else matrix.backend
    if executor is not None and n_workers is not None:
        raise ConfigurationError(
            "n_workers is shorthand for executor='threads'; "
            "pass one or the other, not both"
        )
    if n_ranks is not None and executor is None:
        raise ConfigurationError("n_ranks requires an executor name")
    resilient = (
        faults is not None
        or recovery is not None
        or checkpoint is not None
        or resume
    )
    if resume and checkpoint is None:
        raise ConfigurationError("resume=True requires a checkpoint directory")
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
        if executor is not None or n_workers is not None or resilient:
            report = _tlr_cholesky_graph(
                matrix, rule, n_workers, backend,
                faults, recovery, checkpoint, resume,
                executor=executor, n_ranks=n_ranks,
            )
        else:
            report = _tlr_cholesky_sequential(matrix, rule, backend)
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


def _tlr_cholesky_sequential(
    matrix: BandTLRMatrix,
    rule: TruncationRule,
    backend,
) -> FactorizationReport:
    """The reference loops (body of :func:`tlr_cholesky`).

    Dense destinations are updated right-looking, panel by panel, as in
    Fig. 4; a low-rank destination ``(m, n)`` is skipped by the trailing
    updates and takes every panel product ``j < n`` in one fused GEMM
    just before its TRSM.  The panel tiles it reads are final by then,
    so no update is held back; a tile still pending generation
    (a deferred assembly) is generated by that same GEMM, and born
    compressed or dense.
    """
    nt = matrix.ntiles
    report = FactorizationReport()

    def update(m: int, n: int, panels) -> None:
        """``(m, n) -= Σ_{j in panels} (m, j) (n, j)ᵀ``."""
        a = [matrix.tile(m, j) for j in panels]
        b = [matrix.tile(n, j) for j in panels]
        c = matrix.tile(m, n)
        if isinstance(c, DenseTile):
            for aj, bj in zip(a, b):
                hcore.gemm_auto(aj, bj, c, rule, counter=report.counter)
            return
        out, _, recomp = hcore.gemm_auto(
            a, b, c, rule,
            counter=report.counter, backend=backend, tile_index=(m, n),
        )
        if recomp.grew:
            report.rank_growth_events += 1
        report.max_rank_seen = max(report.max_rank_seen, recomp.rank_after)
        matrix.set_tile(m, n, out)

    for k in range(nt):
        hcore.potrf_dense(
            matrix.tile(k, k), counter=report.counter, tile_index=(k, k)
        )
        for m in range(k + 1, nt):
            if k > 0 and not isinstance(matrix.tile(m, k), DenseTile):
                update(m, k, range(k))
            out = hcore.trsm_auto(
                matrix.tile(k, k), matrix.tile(m, k), counter=report.counter
            )
            matrix.set_tile(m, k, out)
        matrix.tile(k, k).inverse = None  # the panel's TRSMs are done
        for n in range(k + 1, nt):
            hcore.syrk_auto(
                matrix.tile(n, k), matrix.tile(n, n), counter=report.counter
            )
            for m in range(n + 1, nt):
                if isinstance(matrix.tile(m, n), DenseTile):
                    update(m, n, (k,))
    return report


def _tlr_cholesky_graph(
    matrix: BandTLRMatrix,
    rule: TruncationRule,
    n_workers: int | None,
    backend=None,
    faults=None,
    recovery=None,
    checkpoint=None,
    resume: bool = False,
    *,
    executor=None,
    n_ranks: int | None = None,
) -> FactorizationReport:
    """Run the factorization through a graph executor.

    Builds the fused Cholesky DAG (one GEMM task per low-rank tile) from
    the matrix's measured rank grid and executes it on the selected
    :class:`~repro.runtime.protocol.Executor` backend — ``n_workers``
    workers of the in-process core, ``executor=``'s choice, or the core
    at one inline worker when neither is given but resilience features
    are requested; the report surface matches the sequential path's.
    """
    # Local import: repro.runtime must stay importable without repro.core.
    from ..runtime.graph import graph_for_matrix
    from ..runtime.protocol import ThreadExecutor, get_executor

    if executor is None:
        if n_workers is not None:
            ex = ThreadExecutor(n_workers=n_workers)
        else:
            ex = get_executor("sequential")
    else:
        kwargs = {}
        if n_ranks is not None:
            # Rank count maps onto whichever worker knob the named
            # backend exposes.
            kwargs = (
                {"n_workers": n_ranks}
                if executor == "threads"
                else {"n_ranks": n_ranks}
            )
        ex = get_executor(executor, **kwargs)
    if ex.name == "sim":
        raise ConfigurationError(
            "the sim executor predicts a run without factorizing; use "
            "repro.runtime.protocol.SimExecutor (or `repro execute "
            "--executor sim`) directly for predictions"
        )

    if ex.name == "processes" or checkpoint is not None:
        matrix.realize()  # pending tiles are not shipped or persisted
    try:
        run = ex.execute(
            graph_for_matrix(matrix), matrix,
            rule=rule, backend=backend, faults=faults,
            recovery=recovery, checkpoint=checkpoint, resume=resume,
        )
    except RuntimeSystemError as exc:
        # A matrix that is not SPD is the caller's to handle (an MLE step
        # scores it −inf), not a runtime failure, on any worker or rank.
        npd = exc.__cause__
        if isinstance(npd, NotPositiveDefiniteError):
            raise NotPositiveDefiniteError(str(npd), npd.tile_index) from exc
        raise
    return FactorizationReport(
        counter=run.counter,
        rank_growth_events=run.rank_growth_events,
        max_rank_seen=run.max_rank_seen,
        tasks_resumed=run.tasks_resumed,
        resilience=run.resilience,
        executor=run.executor,
        comm=getattr(run.report, "comm", None),
    )
