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

Low-rank factors are stored in float32 when the tile's ε budget exceeds
single-precision roundoff (:func:`repro.linalg.precision.lowrank_dtype`);
dense tiles — the band and the Cholesky factors themselves — always stay
float64.

A third state, :class:`PendingTile`, is a tile a deferred assembly (an
MLE step's) has not generated yet: the recipe of its dense block, which
the task that first writes it generates — an off-band tile of column
``j >= 1`` in its fused update (``recompress_update``), which either
compresses it once or keeps it dense.  :func:`born_dense` is the one rule
that picks the format: a price in seconds, which at a birth (the
compression already run) is the rank ≥ ⌈b/3⌉ threshold and, for the map
a factor hands the next MLE step, also charges the compression a
low-rank birth would cost against the kernel time it saves downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any

import numpy as np

from .. import obs
from ..utils.exceptions import KernelError
from .flops import (
    flops_gemm_dense,
    flops_gemm_dense_lrd,
    flops_syrk_dense,
    flops_syrk_lr,
    flops_trsm_dense,
    flops_trsm_lr,
)

__all__ = [
    "TileFormat", "DenseTile", "LowRankTile", "PendingTile", "Tile", "born_dense",
    "COMPRESS_MS", "COMPRESS_ORDER", "KERNEL_FLOPS",
]


#: Measured time (ms) to compress one 200 x 200 Matérn tile as the next
#: MLE step's birth does — hinted by the rank the tile had in the last
#: factor — by the route :meth:`AutoBackend.select
#: <repro.linalg.backends.AutoBackend.select>` picks for that hint and
#: the storage dtype, per rank bucket (rank < 20, < 40, < b/3; BLAS
#: pinned to one thread on a 2-core Xeon, in a sitting where the float64
#: ``gesdd`` read 5.2-5.4 ms).  The exact route is one ``gesdd`` at every
#: rank, ``sgesdd`` on a float32 tile where ε clears its single-precision
#: roundoff (:data:`~repro.linalg.backends.FP32_SVD_MARGIN`; below it
#: ``dgesdd``, at the float64 row's cost, which this row does not see);
#: the sampler's one hinted block grows with the rank.  A hint below b/3
#: samples at any ε, so a birth under ε < 1e-7 samples in float64.
COMPRESS_MS = {
    ("svd", "float64"): (5.5, 5.5, 5.5),
    ("svd", "float32"): (3.2, 3.2, 3.2),
    ("rsvd", "float32"): (0.9, 1.2, 1.9),
    ("rsvd", "float64"): (0.9, 1.4, 2.7),
}

#: How each route's cost grows with the tile side: ``(b/200) ** order``.
#: ``gesdd`` is O(b³); the sampler's products and QRs are O(b²) at a
#: given rank.
COMPRESS_ORDER = {"svd": 3, "rsvd": 2}

#: Rate (flop/s) at which the kernels a tile feeds are priced: the
#: Table-I flops of :mod:`repro.linalg.flops` over this rate are the
#: seconds they take (on the host of :data:`COMPRESS_MS` a 200 x 200
#: ``dgemm`` runs at 50-56 Gflop/s alone and the dense GEMMs of a
#: two-worker MLE step at 30-35 under tracing).
KERNEL_FLOPS = 40e9


def born_dense(
    rank: int,
    shape: tuple[int, int],
    *,
    gemms: int = 0,
    route: str | None = None,
    dtype=np.float64,
) -> bool:
    """The dense/low-rank rule: is a tile of ``rank`` better stored dense?

    A tile stays low-rank only below a third of its side, ⌈b/3⌉ with
    ``b = min(m, n)`` (past it the factor pair is slower to apply than
    the dense block, paper §IX), and only if its compression costs no
    more time than its low-rank form saves over the kernels that consume
    it: its TRSM, the SYRK that reads it and ``gemms`` GEMMs, each priced
    by Table I as the dense kernel minus the low-rank one ((1)- less
    (4)-TRSM, (1)- less (3)-SYRK, (1)- less (2)-GEMM) at
    :data:`KERNEL_FLOPS`.  Below b/3 that saving is positive, so
    ``route=None`` — a birth, whose compression has already run — prices
    the compression at zero and the rule is the threshold alone.  With
    the ``route`` the compressor would take and the storage ``dtype``
    the compression costs :data:`COMPRESS_MS`, scaled by
    :data:`COMPRESS_ORDER` (ragged tiles are priced as the square tile
    of their shorter side).

    A pure function of its arguments, so a map of it is the same on
    every worker and rank count.  A dense tile (rank ``min(m, n)``)
    satisfies it by convention.
    """
    b = min(shape)
    if 3 * rank >= b:
        return True
    compress_s = 0.0
    if route is not None:
        bucket = 0 if rank < 20 else 1 if rank < 40 else 2
        ms = COMPRESS_MS[(route, np.dtype(dtype).name)][bucket]
        compress_s = ms * 1e-3 * (b / 200) ** COMPRESS_ORDER[route]
    saved = (
        flops_trsm_dense(b) - flops_trsm_lr(b, rank)
        + flops_syrk_dense(b) - flops_syrk_lr(b, rank)
        + gemms * (flops_gemm_dense(b) - flops_gemm_dense_lrd(b, rank))
    )
    return compress_s > saved / KERNEL_FLOPS


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
    inverse:
        ``L⁻¹`` of a factored diagonal tile, held from its POTRF until
        its panel's TRSMs are done (:func:`~repro.linalg.hcore.potrf_dense`),
        else ``None``.  Scratch of the process holding the tile: never
        copied, pickled, saved or counted in :meth:`memory_bytes`.
    """

    data: np.ndarray
    inverse: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise KernelError(f"dense tile must be 2-D, got shape {self.data.shape}")

    def __getstate__(self) -> dict:
        return {"data": self.data}

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
        # float32 storage is allowed (the ε rule of .precision); any other
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
    """A tile not generated yet: ``problem.tile(i, j)`` on demand.

    It stores nothing (rank 0, no bytes), and its copy is its recipe
    without ``out``; ``dtype`` is the storage dtype a compressed
    tile will take, and the dtype it is updated and compressed in.
    ``dense`` is the format decision: ``True`` keeps the block dense
    without compressing it (every band tile), ``False`` compresses it,
    and ``None`` (no earlier factor to read it from) compresses it and
    then applies :func:`born_dense` to the rank found.  :meth:`born` is
    the one place the decision is carried out;
    :meth:`CompressionBackend.recompress_update
    <repro.linalg.backends.CompressionBackend.recompress_update>` and
    :meth:`BandTLRMatrix.generate <repro.matrix.BandTLRMatrix.generate>`
    call it.  ``out``, when set, is recycled storage the block is
    generated into: a float64 buffer of the tile's shape that nothing
    else holds (a previous factor's tile, handed over by its owner).
    ``hint``, when set, is the rank the tile had in that previous factor:
    its compression's ``rank_hint``, which sizes the sampler's first block.
    """

    problem: Any  # a CovarianceProblem (linalg never imports statistics)
    i: int
    j: int
    shape: tuple[int, int]
    dtype: np.dtype = np.dtype(np.float64)
    dense: bool | None = None
    out: np.ndarray | None = field(default=None, repr=False)
    hint: int | None = None
    format = TileFormat.PENDING
    rank = 0

    def to_dense(self) -> np.ndarray:
        """Generate the dense block (float64), into ``out`` if set.

        Nothing is cached; with an active :mod:`repro.obs` observation
        the generation is one ``"generate"`` span, nested in the task
        that generates the tile.
        """
        with obs.span("generate", "assembly"):
            if self.out is None:
                return self.problem.tile(self.i, self.j)
            return self.problem.tile(self.i, self.j, out=self.out)

    def born(self, final, compress) -> "DenseTile | LowRankTile":
        """The tile this recipe becomes from its final dense block.

        ``final(dtype)`` forms that block in ``dtype`` (the generated
        float64 block, cast once, then updated) and is called at most once
        per dtype; ``compress(block)`` returns the block's
        :class:`LowRankTile` in the storage dtype and must leave ``block``
        intact.  A tile decided dense is formed in float64 and never
        compressed; any other is formed and compressed in its storage
        dtype, and an undecided one the rule keeps dense keeps the float64
        block.
        """
        if self.dense:
            return DenseTile(final(np.float64))
        block = final(self.dtype)
        tile = compress(block)
        if self.dense is None and born_dense(tile.rank, self.shape):
            if block.dtype != np.float64:
                block = final(np.float64)
            return DenseTile(block)
        return tile

    def memory_elements(self, maxrank: int | None = None) -> int:
        return 0

    def memory_bytes(self) -> int:
        return 0

    def copy(self) -> "PendingTile":
        # Two matrices must never generate into one buffer.
        return self if self.out is None else replace(self, out=None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PendingTile({self.i}, {self.j}, shape={self.shape})"


#: Union type of the three tile states.
Tile = DenseTile | LowRankTile | PendingTile
