"""TLR matrix-vector products and iteratively refined solves.

The TLR factor is an *approximation* of the true Cholesky factor: a
direct solve inherits the compression error ε.  Classical iterative
refinement repairs this whenever the original operator can still be
applied accurately — and it can: the covariance problem regenerates exact
tiles on demand, and even the compressed matrix applies in
``O(N b + N k NT)`` through :func:`tlr_matvec`.

This combination (low-accuracy factorization + refinement against a
higher-accuracy operator) is the standard companion of the paper's
accuracy-threshold study (Fig. 13): factorize cheap at ε = 1e-3/1e-5,
recover solver accuracy with a few refinement sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg.tiles import DenseTile
from ..matrix.tlr_matrix import BandTLRMatrix
from ..statistics.problem import CovarianceProblem
from ..utils.exceptions import ConfigurationError
from .solve import solve_spd

__all__ = ["tlr_matvec", "RefinementResult", "refined_solve"]


def tlr_matvec(matrix: BandTLRMatrix, x: np.ndarray) -> np.ndarray:
    """``y = A @ x`` for a symmetric BAND-DENSE-TLR matrix.

    Off-diagonal tiles apply twice (once transposed) since only the lower
    triangle is stored; compressed tiles apply as two thin products.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.shape[0] != matrix.n:
        raise ConfigurationError(
            f"x has {x.shape[0]} rows but the matrix is {matrix.n}x{matrix.n}"
        )
    matrix.require_realized("tlr_matvec")
    desc = matrix.desc
    y = np.zeros_like(x)
    for (i, j), tile in matrix.tiles.items():
        si, sj = desc.tile_slice(i), desc.tile_slice(j)
        if isinstance(tile, DenseTile):
            y[si] += tile.data @ x[sj]
            if i != j:
                y[sj] += tile.data.T @ x[si]
        else:
            if tile.rank > 0:
                y[si] += tile.u @ (tile.v.T @ x[sj])
                if i != j:
                    y[sj] += tile.v @ (tile.u.T @ x[si])
    return y[:, 0] if squeeze else y


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of an iteratively refined solve.

    Attributes
    ----------
    x:
        The refined solution.
    iterations:
        Refinement sweeps performed (0 = the direct solve sufficed).
    residual_norms:
        Relative residual after the direct solve and after each sweep.
    converged:
        True when the final relative residual met the tolerance.
    """

    x: np.ndarray
    iterations: int
    residual_norms: tuple[float, ...]
    converged: bool


def refined_solve(
    factor: BandTLRMatrix,
    rhs: np.ndarray,
    *,
    operator: CovarianceProblem | BandTLRMatrix | None = None,
    tolerance: float = 1e-12,
    max_iterations: int = 10,
) -> RefinementResult:
    """Solve ``A x = rhs`` with the TLR factor plus iterative refinement.

    Parameters
    ----------
    factor:
        The factorized (possibly low-accuracy) matrix — the preconditioner.
    rhs:
        Right-hand side vector.
    operator:
        The accurate operator for residuals: a
        :class:`CovarianceProblem` (exact tile regeneration, used
        blockwise) or a (higher-accuracy) :class:`BandTLRMatrix`;
        defaults to the factor's own matvec — which cannot improve on the
        direct solve but still reports residual history.
    tolerance:
        Target relative residual.
    max_iterations:
        Refinement sweep cap.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 1 or rhs.shape[0] != factor.n:
        raise ConfigurationError(
            f"rhs must be a length-{factor.n} vector, got shape {rhs.shape}"
        )
    if max_iterations < 0:
        raise ConfigurationError("max_iterations must be >= 0")

    if operator is None:
        operator = factor

    def apply_a(x: np.ndarray) -> np.ndarray:
        if isinstance(operator, BandTLRMatrix):
            return tlr_matvec(operator, x)
        # CovarianceProblem: exact blockwise application.
        desc_n = operator.ntiles
        y = np.zeros_like(x)
        for i in range(desc_n):
            ri = operator.tile_rows(i)
            for j in range(desc_n):
                rj = operator.tile_rows(j)
                block = operator.tile(i, j)
                y[ri] += block @ x[rj]
        return y

    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return RefinementResult(np.zeros_like(rhs), 0, (0.0,), True)

    x = solve_spd(factor, rhs)
    res = rhs - apply_a(x)
    history = [float(np.linalg.norm(res)) / rhs_norm]
    it = 0
    while history[-1] > tolerance and it < max_iterations:
        dx = solve_spd(factor, res)
        x = x + dx
        res = rhs - apply_a(x)
        new = float(np.linalg.norm(res)) / rhs_norm
        it += 1
        if new >= history[-1] * 0.9:
            history.append(new)
            break  # stagnation: the factor is too inaccurate to refine
        history.append(new)
    return RefinementResult(
        x=x,
        iterations=it,
        residual_norms=tuple(history),
        converged=history[-1] <= tolerance,
    )
