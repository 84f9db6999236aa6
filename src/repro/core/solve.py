"""Triangular solves and SPD system solution on a TLR Cholesky factor.

After :func:`repro.core.factorize.tlr_cholesky` the matrix holds ``L`` in
mixed dense/low-rank tile storage.  These routines apply ``L^{-1}`` and
``L^{-T}`` tile-by-tile (forward and backward substitution), which is all
MLE needs: the quadratic form ``z^T Σ^{-1} z = ||L^{-1} z||²`` and the
log-determinant from the diagonal of ``L``.

Low-rank off-diagonal tiles apply as ``U (V^T x)`` — two thin GEMVs — so a
solve costs ``O(N b + N k NT)`` instead of the dense ``O(N²)``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ..linalg.batched import split_solution, stack_rhs
from ..linalg.tiles import DenseTile, Tile
from ..matrix.tlr_matrix import BandTLRMatrix
from ..utils.exceptions import ConfigurationError
from ..utils.validation import check_rhs

__all__ = [
    "forward_solve",
    "backward_solve",
    "solve_spd",
    "solve_many",
    "log_det",
]


def _apply(tile: Tile, x: np.ndarray) -> np.ndarray:
    """``tile @ x`` honouring the storage format."""
    if isinstance(tile, DenseTile):
        return tile.data @ x
    if tile.rank == 0:
        return np.zeros((tile.shape[0],) + x.shape[1:])
    return tile.u @ (tile.v.T @ x)


def _apply_t(tile: Tile, x: np.ndarray) -> np.ndarray:
    """``tile.T @ x`` honouring the storage format."""
    if isinstance(tile, DenseTile):
        return tile.data.T @ x
    if tile.rank == 0:
        return np.zeros((tile.shape[1],) + x.shape[1:])
    return tile.v @ (tile.u.T @ x)


def _check_rhs(factor: BandTLRMatrix, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    factor.require_realized("a triangular solve")  # a pending tile is rank 0
    rhs = check_rhs("rhs", rhs)
    squeeze = rhs.ndim == 1
    if squeeze:
        rhs = rhs[:, None]
    if rhs.shape[0] != factor.n:
        raise ConfigurationError(
            f"rhs has {rhs.shape[0]} rows but the factor is {factor.n}x{factor.n}"
        )
    return rhs.copy(), squeeze


def forward_solve(factor: BandTLRMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L y = rhs`` with the factored matrix.

    Accepts a vector or a multi-column right-hand side.
    """
    y, squeeze = _check_rhs(factor, rhs)
    desc = factor.desc
    for i in range(desc.ntiles):
        si = desc.tile_slice(i)
        for j in range(i):
            y[si] -= _apply(factor.tile(i, j), y[desc.tile_slice(j)])
        y[si] = sla.solve_triangular(
            factor.tile(i, i).data, y[si], lower=True, check_finite=False
        )
    return y[:, 0] if squeeze else y


def backward_solve(factor: BandTLRMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L^T x = rhs`` with the factored matrix."""
    x, squeeze = _check_rhs(factor, rhs)
    desc = factor.desc
    for i in reversed(range(desc.ntiles)):
        si = desc.tile_slice(i)
        for m in range(i + 1, desc.ntiles):
            x[si] -= _apply_t(factor.tile(m, i), x[desc.tile_slice(m)])
        x[si] = sla.solve_triangular(
            factor.tile(i, i).data, x[si], lower=True, trans="T", check_finite=False
        )
    return x[:, 0] if squeeze else x


def solve_spd(factor: BandTLRMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``Σ x = rhs`` given ``Σ = L L^T`` (forward then backward)."""
    return backward_solve(factor, forward_solve(factor, rhs))


def solve_many(factor: BandTLRMatrix, rhs_list) -> list[np.ndarray]:
    """Solve ``Σ x = rhs`` for many right-hand sides in one stacked pass.

    The :mod:`repro.linalg.batched` marshaling idiom applied to the
    solve: the RHS vectors (or column blocks) are stacked column-wise
    so every diagonal-tile ``solve_triangular`` and every off-diagonal
    tile application in the substitution carries all pending columns in
    a single BLAS/LAPACK call, instead of one dispatch per request.
    ``trtrs`` solves columns independently, so each returned solution
    equals its standalone :func:`solve_spd` counterpart to within the
    usual roundoff of GEMM column blocking.

    This is what the solver service's multi-RHS batching runs: ``k``
    concurrent requests against the same cached factor cost one
    substitution sweep, not ``k``.
    """
    stacked, widths = stack_rhs(rhs_list)
    return split_solution(solve_spd(factor, stacked), widths, rhs_list)


def log_det(factor: BandTLRMatrix) -> float:
    """``log|Σ| = 2 Σ_i log L_ii`` from the factor's diagonal tiles."""
    total = 0.0
    for k in range(factor.ntiles):
        diag = np.diag(factor.tile(k, k).data)
        if np.any(diag <= 0):
            raise ConfigurationError(
                "factor has non-positive diagonal entries; was the matrix "
                "factorized?"
            )
        total += float(np.sum(np.log(diag)))
    return 2.0 * total
