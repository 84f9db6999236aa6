"""Pairwise Euclidean distance computation.

Covariance tiles need the distance matrix between two *blocks* of
locations.  We compute it with the vectorized identity

    ||x - y||^2 = ||x||^2 + ||y||^2 - 2 <x, y>

which turns the double loop into one GEMM — the dominant cost of matrix
generation — plus cheap broadcasting, in line with the HPC guides
(vectorize, lean on BLAS).  A tiny floor clamps the inevitable negative
round-off before the square root.
"""

from __future__ import annotations

import numpy as np

from ..utils.exceptions import ConfigurationError

__all__ = ["pairwise_distances", "block_distances"]


def _as_points(name: str, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ConfigurationError(f"{name} must be (n, d) points, got shape {x.shape}")
    return x


def block_distances(
    x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Distance matrix ``D[i, j] = ||x_i - y_j||`` between two point blocks.

    Parameters
    ----------
    x:
        Shape ``(m, d)``.
    y:
        Shape ``(n, d)`` with the same ``d``.
    out:
        A C-contiguous float64 ``(m, n)`` array to evaluate into; a new
        one when ``None``.  The result is bitwise the same either way.

    Returns
    -------
    numpy.ndarray
        Shape ``(m, n)`` matrix of Euclidean distances (``out`` if given).
    """
    x = _as_points("x", x)
    y = _as_points("y", y)
    if x.shape[1] != y.shape[1]:
        raise ConfigurationError(
            f"dimension mismatch: x has d={x.shape[1]}, y has d={y.shape[1]}"
        )
    x2 = np.einsum("ij,ij->i", x, x)
    y2 = np.einsum("ij,ij->i", y, y)
    # (x2 + y2) - 2 x.y, rounded as written: scaling by -2 is exact and
    # IEEE addition commutes, so only the x2 + y2 outer sum is a temporary.
    sq = np.matmul(x, y.T, out=out)
    sq *= -2.0
    sq += x2[:, None] + y2[None, :]
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Symmetric distance matrix of one point set with an exactly-zero diagonal."""
    d = block_distances(x, x)
    np.fill_diagonal(d, 0.0)
    return d
