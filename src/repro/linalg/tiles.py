"""Tile data structures: dense tiles, low-rank (U·Vᵀ) tiles, and tiles
still pending generation.

HiCMA's TLR format stores each compressed tile as two tall-and-skinny
factors ``U`` (m×k) and ``V`` (n×k) with ``tile = U @ V.T`` — ``k`` is the
tile's *rank*.  The paper's dynamic-memory contribution hinges on the
distinction between

* the **static descriptor** (PaRSEC-HiCMA-Prev): every compressed tile owns
  ``2 * maxrank * b`` elements regardless of its actual rank, and
* the **dynamic designation** (PaRSEC-HiCMA-New): every tile owns exactly
  ``2 * k * b`` elements, reallocated when recompression grows the rank.

Both accounting schemes are exposed here (:meth:`LowRankTile.memory_elements`)
so the memory benchmarks (Fig. 8) can compare them on identical rank data.

Low-rank factors may be stored in float32 when a precision policy
(:mod:`repro.linalg.precision`) certifies the tile's ε-budget exceeds
single-precision roundoff; dense tiles — the band and the Cholesky
factors themselves — always stay float64.

A third state, :class:`PendingTile`, is an off-band tile an MLE step has
not generated yet: the recipe of its dense block, which its fused update
(``recompress_update``) either compresses once or keeps dense.
:func:`keep_dense` is the one rule that picks the format.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Any

import numpy as np

from ..utils.exceptions import KernelError

__all__ = [
    "TileFormat", "DenseTile", "LowRankTile", "PendingTile", "Tile", "keep_dense",
]


def keep_dense(rank: int, shape: tuple[int, int]) -> bool:
    """The dense/low-rank rule: a tile of rank ≥ ⌈min(m, n)/3⌉ stays dense.

    Past a third of the tile the factor pair is slower to apply than the
    dense block, so a tile born at that rank is not worth its SVD (paper
    §IX: decide the format per tile, not per band).  A dense tile (rank
    ``min(m, n)``) satisfies it by convention.
    """
    return 3 * rank >= min(shape)


class TileFormat(Enum):
    """Storage layout of a tile."""

    DENSE = "dense"
    LOW_RANK = "low_rank"
    PENDING = "pending"


@dataclass
class DenseTile:
    """A dense ``m x n`` tile.

    Attributes
    ----------
    data:
        The tile entries, C-contiguous float64.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise KernelError(f"dense tile must be 2-D, got shape {self.data.shape}")

    @property
    def format(self) -> TileFormat:
        return TileFormat.DENSE

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def rank(self) -> int:
        """Storage rank of a dense tile: min(m, n) by convention."""
        return min(self.shape)

    def to_dense(self) -> np.ndarray:
        """Return the tile as a plain ndarray (no copy)."""
        return self.data

    def memory_elements(self, maxrank: int | None = None) -> int:
        """Number of float64 elements stored (``m * n``)."""
        return self.data.size

    def memory_bytes(self) -> int:
        """Exact bytes stored (dense tiles are always float64)."""
        return self.data.nbytes

    def copy(self) -> "DenseTile":
        return DenseTile(self.data.copy())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DenseTile(shape={self.shape})"


@dataclass
class LowRankTile:
    """A rank-``k`` tile stored as ``U @ V.T``.

    Attributes
    ----------
    u:
        Left factor of shape ``(m, k)``.
    v:
        Right factor of shape ``(n, k)`` — note the HiCMA convention
        ``tile = U @ V.T`` (V is *not* pre-transposed).
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        # float32 storage is allowed (mixed-precision policies); any other
        # dtype — ints, float16 payloads, object arrays — is coerced to the
        # float64 default.  Mixed-precision factors are upcast to a common
        # dtype so ``u`` and ``v`` always agree.
        u, v = np.asarray(self.u), np.asarray(self.v)
        if u.dtype == np.float32 and v.dtype == np.float32:
            dtype = np.float32
        else:
            dtype = np.float64
        self.u = np.ascontiguousarray(u, dtype=dtype)
        self.v = np.ascontiguousarray(v, dtype=dtype)
        if self.u.ndim != 2 or self.v.ndim != 2:
            raise KernelError(
                f"low-rank factors must be 2-D, got U{self.u.shape} V{self.v.shape}"
            )
        if self.u.shape[1] != self.v.shape[1]:
            raise KernelError(
                f"rank mismatch: U has k={self.u.shape[1]}, V has k={self.v.shape[1]}"
            )

    @property
    def format(self) -> TileFormat:
        return TileFormat.LOW_RANK

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    @property
    def rank(self) -> int:
        """Current numerical storage rank ``k``."""
        return self.u.shape[1]

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the factors (float64 or float32)."""
        return self.u.dtype

    def astype(self, dtype) -> "LowRankTile":
        """Return a copy of this tile with factors cast to ``dtype``."""
        dtype = np.dtype(dtype)
        if dtype == self.u.dtype:
            return self.copy()
        return LowRankTile(self.u.astype(dtype), self.v.astype(dtype))

    def to_dense(self) -> np.ndarray:
        """Expand to a dense ndarray ``U @ V.T`` (always float64)."""
        if self.rank == 0:
            return np.zeros(self.shape)
        out = self.u @ self.v.T
        return out.astype(np.float64) if out.dtype != np.float64 else out

    def memory_elements(self, maxrank: int | None = None) -> int:
        """Elements stored (dtype-agnostic count).

        With ``maxrank`` given, reports the *static descriptor* footprint
        ``(m + n) * maxrank`` of PaRSEC-HiCMA-Prev; otherwise the exact
        dynamic footprint ``(m + n) * k`` of PaRSEC-HiCMA-New.
        """
        m, n = self.shape
        k = self.rank if maxrank is None else maxrank
        return (m + n) * k

    def memory_bytes(self) -> int:
        """Exact bytes stored, honouring the storage dtype."""
        return self.u.nbytes + self.v.nbytes

    def copy(self) -> "LowRankTile":
        return LowRankTile(self.u.copy(), self.v.copy())

    @classmethod
    def zero(cls, m: int, n: int, dtype=np.float64) -> "LowRankTile":
        """An exactly-zero tile of rank 0."""
        dtype = np.dtype(dtype)
        return cls(np.zeros((m, 0), dtype=dtype), np.zeros((n, 0), dtype=dtype))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LowRankTile(shape={self.shape}, rank={self.rank})"


@dataclass(frozen=True, eq=False)
class PendingTile:
    """An off-band tile not generated yet: ``problem.tile(i, j)`` on demand.

    It stores nothing (rank 0, no bytes), so it is its own copy and
    pickles as its recipe; ``dtype`` is the storage dtype a compressed
    tile will take.  ``dense`` is the format decision: ``True`` keeps the
    block dense without compressing it, ``False`` compresses it, and
    ``None`` (no earlier factor to read it from) compresses it and then
    applies :func:`keep_dense` to the rank found.  :meth:`born` is the one
    place the decision is carried out; :meth:`CompressionBackend.recompress_update
    <repro.linalg.backends.CompressionBackend.recompress_update>` and
    :meth:`BandTLRMatrix.realize <repro.matrix.BandTLRMatrix.realize>`
    call it.
    """

    problem: Any  # a CovarianceProblem (linalg never imports statistics)
    i: int
    j: int
    shape: tuple[int, int]
    dtype: np.dtype = np.dtype(np.float64)
    dense: bool | None = None
    format = TileFormat.PENDING
    rank = 0

    def astype(self, dtype) -> "PendingTile":
        """The same recipe under another storage dtype."""
        return replace(self, dtype=np.dtype(dtype))

    def to_dense(self) -> np.ndarray:
        """Generate the dense block (float64); nothing is cached."""
        return self.problem.tile(self.i, self.j)

    def born(self, block: np.ndarray, compress) -> "DenseTile | LowRankTile":
        """The tile this recipe becomes from its final dense ``block``.

        ``compress(block)`` returns the block's :class:`LowRankTile` in
        the storage dtype; it is not called for a tile decided dense, and
        it must leave ``block`` intact.
        """
        if self.dense:
            return DenseTile(block)
        tile = compress(block)
        if self.dense is None and keep_dense(tile.rank, self.shape):
            return DenseTile(block)
        return tile

    def memory_elements(self, maxrank: int | None = None) -> int:
        return 0

    def memory_bytes(self) -> int:
        return 0

    def copy(self) -> "PendingTile":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PendingTile({self.i}, {self.j}, shape={self.shape})"


#: Union type of the three tile states.
Tile = DenseTile | LowRankTile | PendingTile
