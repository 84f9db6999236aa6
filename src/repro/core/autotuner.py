"""BAND_SIZE auto-tuning performance model (Algorithm 1, Section V-B).

The tuner minimizes the modelled flop total by deciding, one sub-diagonal
at a time, whether its tiles are cheaper processed dense or compressed:

* a tile at sub-diagonal distance ``d`` receives (over the whole
  factorization) one TRSM and — at position ``j`` within the
  sub-diagonal — ``j`` GEMM updates;
* the dense cost uses Table I's ``(1)-TRSM``/``(1)-GEMM`` rows; the TLR
  cost uses ``(4)-TRSM``/``(6)-GEMM`` with the sub-diagonal's *maxrank*
  from the post-compression rank distribution (the quantity only known at
  runtime — the reason the rank information must be escalated to the
  runtime at all);
* sub-diagonal ``d`` is rolled back to dense while
  ``dense_flops(d) <= fluctuation * tlr_flops(d)``; ``BAND_SIZE`` is the
  first ``d`` (1-based, diagonal included) that fails the test.

The paper sweeps ``fluctuation ∈ [0.67, 1]`` (the boxes in Figs. 6a/6b and
13a) and picks the *minimum* band size of that range — i.e. the
conservative ``fluctuation = 0.67`` — because ranks grow during the
factorization and near-band TRSM/SYRK flops increase when densifying
(Section VIII-B); both push against aggressive densification.

In the paper the tuning itself is parallelized with an artificial 1DBCDD
so every process evaluates a slice of each sub-diagonal; here the model is
a closed-form sum per sub-diagonal, microseconds of work (its cost is
reported by the Fig. 6d benchmark).

:func:`tune_band_size` decides from a rank grid; :func:`walk_band_size`
decides from the problem, compressing only what the decision reads, and
:func:`autotune_matrix` assembles eagerly around that walk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .. import obs
from ..linalg.flops import (
    flops_gemm_dense,
    flops_gemm_lr,
    flops_trsm_dense,
    flops_trsm_lr,
)
from ..matrix.descriptor import TileDescriptor
from ..matrix.tlr_matrix import BandTLRMatrix
from ..utils.exceptions import ConfigurationError
from ..utils.validation import check_positive_int

__all__ = [
    "SubdiagonalCost",
    "subdiagonal_maxranks",
    "subdiagonal_costs",
    "tune_band_size",
    "BandSizeDecision",
    "band_candidates",
    "tie_break_band",
    "walk_band_size",
    "autotune_matrix",
]

#: The paper's fluctuation window.
FLUCTUATION_RANGE = (0.67, 1.0)


@dataclass(frozen=True)
class SubdiagonalCost:
    """Modelled factorization flops of one sub-diagonal (Fig. 6c data).

    Attributes
    ----------
    band_id:
        1-based band index (``d + 1`` for sub-diagonal distance ``d``).
    maxrank:
        Largest initial rank observed on the sub-diagonal.
    ntile:
        Number of tiles on the sub-diagonal.
    dense_flops:
        Total flops if the sub-diagonal is processed dense.
    tlr_flops:
        Total flops if it stays compressed (at ``maxrank``).
    """

    band_id: int
    maxrank: int
    ntile: int
    dense_flops: float
    tlr_flops: float


@dataclass(frozen=True)
class BandSizeDecision:
    """Outcome of the auto-tuner.

    Attributes
    ----------
    band_size:
        Chosen ``BAND_SIZE`` (>= 1; the diagonal is always dense).
    fluctuation:
        The factor used for the decision.
    costs:
        Per-sub-diagonal cost table (for Fig. 6c style reporting).  From
        :func:`autotune_matrix`, ``maxrank`` of a sub-diagonal *inside*
        the band is the running max rank that decided it dense, not the
        max over tiles that were never compressed.  From
        :func:`walk_band_size` — hence from a deferred build such as
        :class:`~repro.core.api.TLRSolver`'s ``"auto"`` band — the table
        covers only the sub-diagonals the walk read, each at the running
        max rank it stopped on; the tiles beyond were never compressed
        before their update.
    band_size_range:
        ``(min, max)`` band size over the paper's fluctuation window
        [0.67, 1] — the rectangular boxes of Figs. 6a/6b.
    """

    band_size: int
    fluctuation: float
    costs: tuple[SubdiagonalCost, ...]
    band_size_range: tuple[int, int]


def subdiagonal_maxranks(rank_grid: np.ndarray) -> list[int]:
    """Max initial rank per sub-diagonal ``d = 1 .. NT-1``.

    ``rank_grid`` is the output of
    :meth:`repro.matrix.BandTLRMatrix.rank_grid` (−1 marks dense/unused
    entries).  Sub-diagonals whose tiles are all dense (inside the current
    band) report −1 and are skipped by the cost model.
    """
    nt = rank_grid.shape[0]
    return [int(np.diagonal(rank_grid, -d).max()) for d in range(1, nt)]


def _subdiagonal_cost(d: int, k: int, nt: int, b: int) -> SubdiagonalCost:
    """Cost of sub-diagonal ``d`` at max rank ``k`` (``k < 0``: already dense).

    Tile ``(j + d, j)`` receives ``j`` GEMM updates and one TRSM:
    ``Σ_j j = (NT-d)(NT-d-1)/2`` GEMMs and ``NT - d`` TRSMs in all.
    """
    ntile = nt - d
    n_gemm = ntile * (ntile - 1) // 2
    dense = n_gemm * flops_gemm_dense(b) + ntile * flops_trsm_dense(b)
    tlr = dense  # already dense: the dense cost on both sides
    if k >= 0:
        rank = max(k, 1)
        tlr = n_gemm * flops_gemm_lr(b, rank) + ntile * flops_trsm_lr(b, rank)
    return SubdiagonalCost(
        band_id=d + 1, maxrank=max(k, 0), ntile=ntile, dense_flops=dense, tlr_flops=tlr
    )


def subdiagonal_costs(
    maxranks: list[int], ntiles: int, tile_size: int
) -> list[SubdiagonalCost]:
    """Dense-vs-TLR factorization flops per sub-diagonal ``d = 1 .. NT-1``."""
    nt = check_positive_int("ntiles", ntiles)
    b = check_positive_int("tile_size", tile_size)
    return [
        _subdiagonal_cost(
            d, maxranks[d - 1] if d - 1 < len(maxranks) else -1, nt, b
        )
        for d in range(1, nt)
    ]


def _walk_outward(
    tile_rank, nt: int, b: int, fluctuation: float, max_band: int | None
) -> tuple[dict[float, int], list[int]]:
    """Algorithm 1's decision loop, reading ranks one tile at a time.

    ``tile_rank(i, j)`` is the rank of tile ``(i, j)``, or −1 for a tile
    that is already dense (an all-dense sub-diagonal stays in the band).
    Both costs grow with the rank, so the test is taken on the *running*
    max rank: the first tile that satisfies it for the smallest
    undecided threshold decides the sub-diagonal dense — for that
    threshold and every larger one — and the rest of it is never read.
    A sub-diagonal read to its end fixes the band of each threshold it
    fails.  Returns the band per threshold (``fluctuation`` and both ends
    of the paper's window) and the max rank seen per walked sub-diagonal.
    """
    if not (0.0 < fluctuation <= 1.0):
        raise ConfigurationError(f"fluctuation must be in (0, 1], got {fluctuation}")
    if max_band is not None:
        check_positive_int("max_band", max_band)
    cap = nt if max_band is None else min(max_band, nt)
    alive = sorted({fluctuation, *FLUCTUATION_RANGE})
    bands = dict.fromkeys(alive, cap)
    maxranks: list[int] = []
    for d in range(1, cap):
        k, cost = -1, None
        for j in range(nt - d):
            r = int(tile_rank(j + d, j))
            if r > k:
                k, cost = r, _subdiagonal_cost(d, r, nt, b)
                if cost.dense_flops <= alive[0] * cost.tlr_flops:
                    break
        else:
            failed = [
                f for f in alive if cost and cost.dense_flops > f * cost.tlr_flops
            ]
            bands.update(dict.fromkeys(failed, d))
            alive = alive[len(failed):]
        maxranks.append(k)
        if not alive:
            break
    return bands, maxranks


def _decision(bands, fluctuation: float, costs) -> BandSizeDecision:
    lo, hi = FLUCTUATION_RANGE
    return BandSizeDecision(
        bands[fluctuation], fluctuation, tuple(costs), (bands[lo], bands[hi])
    )


def tune_band_size(
    rank_grid: np.ndarray,
    tile_size: int,
    *,
    fluctuation: float = FLUCTUATION_RANGE[0],
    max_band: int | None = None,
) -> BandSizeDecision:
    """Algorithm 1: choose ``BAND_SIZE`` from the initial rank distribution.

    Parameters
    ----------
    rank_grid:
        Post-compression rank grid, normally of the band-1 layout (every
        off-diagonal tile compressed); a grid whose inner sub-diagonals
        are already dense (−1) gives the same decision as long as that
        band does not exceed the tuned one.
    tile_size:
        Tile dimension ``b``.
    fluctuation:
        Densification threshold in (0, 1]; the paper's default is the
        conservative end 0.67 of its [0.67, 1] window.
    max_band:
        Optional cap >= 1 (defaults to ``NT``).
    """
    nt = rank_grid.shape[0]
    bands, _ = _walk_outward(
        lambda i, j: rank_grid[i, j], nt, tile_size, fluctuation, max_band
    )
    costs = subdiagonal_costs(subdiagonal_maxranks(rank_grid), nt, tile_size)
    return _decision(bands, fluctuation, costs)


def band_candidates(decision: BandSizeDecision) -> tuple[int, ...]:
    """Every band size inside the decision's fluctuation window.

    The paper's boxes in Figs. 6a/6b span ``fluctuation ∈ [0.67, 1]``;
    any band in that range is defensible under Algorithm 1's flop model
    alone, which is exactly the candidate set a simulated sweep should
    discriminate between.
    """
    lo, hi = decision.band_size_range
    return tuple(range(lo, hi + 1))


def tie_break_band(bands) -> int:
    """The shared tie-break: of equally-good bands, the *smallest* wins.

    Both deciders can tie inside the fluctuation window — Algorithm 1
    when ``dense_flops == fluctuation * tlr_flops`` on a sub-diagonal,
    the simulated sweep when two bands produce the same predicted
    makespan.  Section VIII-B's rationale picks the conservative side:
    ranks grow during the factorization and near-band TRSM/SYRK flops
    increase when densifying, so on a tie the less-densified (smaller)
    band is preferred.  This function is the single place that rule
    lives; :mod:`repro.tune`'s simulated sweep applies it through its
    ascending ``band_size`` sort key.
    """
    bands = tuple(bands)
    if not bands:
        raise ConfigurationError("tie_break_band needs at least one band")
    return min(bands)


def walk_band_size(
    problem,
    rule,
    *,
    fluctuation: float = FLUCTUATION_RANGE[0],
    max_band: int | None = None,
) -> tuple[BandSizeDecision, dict]:
    """Algorithm 1 on ``problem``'s tiles: the band, and the tiles it compressed.

    Section VIII-B generates at band 1 and tunes on its ranks.  Here
    :func:`_walk_outward` compresses only the tiles it reads (same
    compression as :meth:`BandTLRMatrix.from_problem`).
    Returns the decision, whose ``costs`` cover only the sub-diagonals
    the walk read, and the off-band tiles of the band it picked (keyed by
    ``(i, j)``) for an assembly to take as ``reuse``.  ``band_size`` and
    ``band_size_range`` are, bitwise, the band-1 pipeline's.
    """
    probe = BandTLRMatrix(TileDescriptor(problem.n, problem.tile_size), 1, rule)

    def tile_rank(i: int, j: int) -> int:
        tile = probe.tiles[i, j] = probe._compress(problem.tile(i, j))
        return tile.rank

    nt, b = probe.ntiles, problem.tile_size
    with obs.span("autotune_band", "phase") as span:
        bands, walked = _walk_outward(tile_rank, nt, b, fluctuation, max_band)
        band = bands[fluctuation]
        kept = {ij: t for ij, t in probe.tiles.items() if ij[0] - ij[1] >= band}
        probed = len(probe.tiles)
        span.set(
            band_size=band, tiles_probed=probed, tiles_discarded=probed - len(kept)
        )
    costs = subdiagonal_costs(walked, nt, b)[: len(walked)]
    return _decision(bands, fluctuation, costs), kept


def autotune_matrix(
    problem,
    rule,
    *,
    fluctuation: float = FLUCTUATION_RANGE[0],
    max_band: int | None = None,
    n_workers: int | None = None,
) -> tuple[BandTLRMatrix, BandSizeDecision]:
    """Assemble ``problem`` at the band Algorithm 1 picks, tuning on the way.

    Section VIII-B generates at band 1, tunes, and regenerates the band
    dense.  Here :func:`walk_band_size` tunes, then everything else is
    assembled once, eagerly, at the band it found, reusing the walk's
    off-band tiles.  The matrix, ``band_size`` and ``band_size_range``
    are, bitwise, what the three-step pipeline produces; only tiles
    compressed before their sub-diagonal was decided dense are wasted.
    Outside the band ``costs`` are the band-1 pipeline's.
    """
    decision, kept = walk_band_size(
        problem, rule, fluctuation=fluctuation, max_band=max_band
    )
    band = decision.band_size
    matrix = BandTLRMatrix.from_problem(
        problem, rule, band, n_workers=n_workers, reuse=kept
    )
    maxranks = subdiagonal_maxranks(matrix.rank_grid())
    maxranks[: band - 1] = [c.maxrank for c in decision.costs[: band - 1]]
    costs = subdiagonal_costs(maxranks, matrix.ntiles, problem.tile_size)
    return matrix, replace(decision, costs=tuple(costs))
