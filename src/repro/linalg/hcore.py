"""HCORE computational kernels: the ten ``(region)-kernel`` variants.

These are the serial numerical kernels of Section VI that the runtime
schedules.  Conventions (matching HiCMA / LAPACK lower Cholesky):

* the factorization is ``A = L @ L.T`` with ``L`` lower triangular;
* TRSM applies ``C <- C @ L^{-T}`` to a panel tile;
* SYRK applies ``C <- C - A @ A.T`` to a diagonal tile;
* GEMM applies ``C <- C - A @ B.T`` to an off-diagonal tile;
* low-rank tiles are ``U @ V.T`` (see :mod:`repro.linalg.tiles`).

Dense-output kernels mutate their destination tile in place and return it;
the four region-(1) kernels do it at BLAS speed.  POTRF also inverts its
factor once (``dtrtri``) and leaves ``L⁻¹`` on the diagonal tile
(:attr:`DenseTile.inverse <repro.linalg.tiles.DenseTile.inverse>`), so
each dense TRSM of the panel is one in-place ``dtrmm`` against it, and a
dense GEMM accumulates into its tile with one ``dgemm`` (α = −1, β = 1)
and no temporary.  Both call BLAS on the tiles' memory as the Fortran
views ``Cᵀ`` with the interpreter lock released (:func:`_blas_nogil`), so
two threads overlap them as they overlap ``matmul``, and both raise
:class:`KernelError` unless every operand is C-contiguous float64.  The
inverse is dropped when the panel closes, by whoever runs the loop.
The Table-I modelled flops stay the paper's: POTRF's span includes the
inversion, TRSM's is the cheaper multiply.

The low-rank-output kernel returns a *new* :class:`LowRankTile` together
with a :class:`~repro.linalg.compression.RecompressionResult` because the
paper's dynamic memory designation reallocates the tile exactly at the
recompression boundary (Section VII-B).  One kernel, :func:`gemm_lr`,
covers regions (5) and (6): it takes one operand pair (the paper's
HCORE_DGEMM, a rounding per update) or every pair of a tile at once (the
fused left-looking update, one rounding per tile).

Every kernel can record its Table I modelled cost into a
:class:`~repro.linalg.flops.FlopCounter`.

Mixed precision: low-rank tiles are float32 wherever ε allows it (ε ≥
:data:`~repro.linalg.precision.FP32_EPS_FLOOR`; see
:mod:`repro.linalg.precision`).  Kernels preserve each *destination*
tile's storage dtype — an fp32 low-rank tile stays fp32 through TRSM and
recompression (run by the single-precision LAPACK drivers; a pending
tile is updated in fp32 too), while dense destinations are always
float64, so accumulations against fp32 operands promote naturally: fp32
storage, fp64 accumulate.  Low-rank TRSM still solves against the fp64
diagonal tile and casts back.
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.linalg as sla
from scipy.linalg import cython_blas, lapack

from ..obs import kernel_observed
from ..utils.exceptions import KernelError, NotPositiveDefiniteError
from .backends import get_backend, tile_seed
from .compression import RecompressionResult, TruncationRule
from .flops import (
    FlopCounter,
    KernelClass,
    flops_gemm_dense,
    flops_gemm_dense_lrd,
    flops_gemm_dense_lrlr,
    flops_gemm_lr_fused,
    flops_potrf_dense,
    flops_syrk_dense,
    flops_syrk_lr,
    flops_trsm_dense,
    flops_trsm_lr,
)
from .tiles import DenseTile, LowRankTile, PendingTile, Tile

__all__ = [
    "potrf_dense",
    "trsm_dense",
    "trsm_lr",
    "syrk_dense",
    "syrk_lr",
    "gemm_dense",
    "gemm_dense_lrd",
    "gemm_dense_lrlr",
    "gemm_lr",
    "gemm_auto",
    "syrk_auto",
    "trsm_auto",
]


def _count(counter: FlopCounter | None, kind: KernelClass, flops: float) -> None:
    if counter is not None:
        counter.add(kind, flops)
    # Feeds the per-region invocation/flop counters of repro.obs; a no-op
    # (one None check) unless an observation is active.
    kernel_observed(kind.value, flops)


def _blas_nogil(name: str, n_args: int):
    """BLAS routine ``name`` of :mod:`scipy.linalg.cython_blas`, called
    through ``ctypes``, which releases the interpreter lock around every
    foreign call (the f2py wrappers of :mod:`scipy.linalg.blas` hold it for
    the whole call).  Same library routine, so the same bits; every
    argument is a pointer (the Fortran convention)."""
    capsule = cython_blas.__pyx_capi__[name]
    # fresh prototypes: ctypes.pythonapi's own function objects are shared
    # by everything in the process that sets their argtypes
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
    )(("PyCapsule_GetPointer", ctypes.pythonapi))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)


_DGEMM = _blas_nogil("dgemm", 13)
_DTRMM = _blas_nogil("dtrmm", 11)
_ONE, _MINUS_ONE = ctypes.c_double(1.0), ctypes.c_double(-1.0)


def _int(i: int):
    return ctypes.byref(ctypes.c_int(i))


def _raw(kernel: str, *arrays: np.ndarray) -> list[int]:
    """Addresses of ``arrays``, which BLAS reads and writes as raw memory:
    anything but C-contiguous float64 would be misread, so it is refused."""
    for d in arrays:
        if not (d.flags.c_contiguous and d.dtype == np.float64):
            raise KernelError(
                f"{kernel} runs in place and needs C-contiguous float64 "
                f"data, got {d.dtype} with strides {d.strides}"
            )
    return [d.ctypes.data for d in arrays]


# ----------------------------------------------------------------------
# Region (1): dense band kernels
# ----------------------------------------------------------------------
def potrf_dense(
    c: DenseTile,
    *,
    counter: FlopCounter | None = None,
    tile_index: tuple[int, int] | None = None,
) -> DenseTile:
    """(1)-POTRF — dense Cholesky of a diagonal tile, in place.

    The strict upper triangle is zeroed so ``c.data`` is exactly ``L``,
    and ``c.inverse`` is set to ``L⁻¹`` (one ``dtrtri``), which the
    panel's dense TRSMs multiply by; a retried POTRF replaces it.  The
    caller drops it once the panel's TRSMs are done.

    Raises
    ------
    NotPositiveDefiniteError
        If the tile is not numerically positive definite.
    """
    try:
        l = sla.cholesky(c.data, lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"POTRF failed on tile {tile_index}: {exc}", tile_index
        ) from exc
    # LAPACK's potrf already leaves the other triangle zeroed in scipy's
    # copy, so a plain assignment suffices — np.tril(l) here would build a
    # full b x b temporary on the critical path for nothing.
    c.data[...] = l
    c.inverse = _lower_inverse(c.data)
    _count(counter, KernelClass.POTRF_DENSE, flops_potrf_dense(c.shape[0]))
    return c


def _lower_inverse(l: np.ndarray) -> np.ndarray:
    """``L⁻¹`` of a lower-triangular ``L``, C-contiguous: ``dtrtri`` of the
    Fortran view ``Lᵀ`` (upper) returns ``L⁻ᵀ`` in Fortran order."""
    inv_t, info = lapack.dtrtri(l.T, lower=0)
    if info:
        raise KernelError(f"TRTRI: the factor is singular (info={info})")
    return inv_t.T


def trsm_dense(
    l_tile: DenseTile, c: DenseTile, *, counter: FlopCounter | None = None
) -> DenseTile:
    """(1)-TRSM — dense ``C <- C @ L^{-T}``, in place, as a TRMM.

    One ``dtrmm`` on the Fortran view (``Cᵀ ← L⁻¹ Cᵀ``) against the
    ``L⁻¹`` :func:`potrf_dense` left on ``l_tile``, with the interpreter
    lock released.  A diagonal tile that arrived without it (received from
    another rank, restored from a checkpoint) gets it from the same
    ``dtrtri`` call first, so the bits do not depend on which process ran
    POTRF.  Multiplying by the inverse loses accuracy as cond(L) grows:
    the whole factor's backward error stays within 16x that of
    ``solve_triangular`` at smoothness up to 2.5 and nugget 1e-6, where
    cond(L) reaches its ceiling √(b σ² / nugget) (``tests/test_hcore.py``).
    """
    if l_tile.shape[0] != l_tile.shape[1] or l_tile.shape[0] != c.shape[1]:
        raise KernelError(
            f"TRSM shape mismatch: L {l_tile.shape} vs C {c.shape}"
        )
    inv = l_tile.inverse
    if inv is None:
        inv = l_tile.inverse = _lower_inverse(l_tile.data)
    if inv.shape != l_tile.shape:
        raise KernelError(
            f"TRSM: inverse {inv.shape} of an older L than {l_tile.shape}"
        )
    m, n = c.shape
    c_ptr, inv_ptr = _raw("TRSM", c.data, inv)
    # Fortran views: inv is upper L⁻ᵀ, applied transposed to Cᵀ (n x m)
    _DTRMM(
        b"L", b"U", b"T", b"N", _int(n), _int(m), ctypes.byref(_ONE),
        inv_ptr, _int(max(n, 1)), c_ptr, _int(max(n, 1)),
    )
    _count(counter, KernelClass.TRSM_DENSE, flops_trsm_dense(c.shape[0]))
    return c


def trsm_lr(
    l_tile: DenseTile, c: LowRankTile, *, counter: FlopCounter | None = None
) -> LowRankTile:
    """(4)-TRSM — low-rank ``C <- C @ L^{-T}``; only V is touched.

    ``(U V^T) L^{-T} = U (L^{-1} V)^T``, so the triangular solve operates
    on the thin ``V`` factor — the reason this kernel costs ``b²k`` instead
    of ``b³``.
    """
    if l_tile.shape[0] != l_tile.shape[1] or l_tile.shape[0] != c.shape[1]:
        raise KernelError(
            f"TRSM shape mismatch: L {l_tile.shape} vs C {c.shape}"
        )
    if c.rank > 0:
        v = sla.solve_triangular(
            l_tile.data, c.v, lower=True, trans="N", check_finite=False
        )
        # The solve promotes fp32 V against the fp64 band tile; cast back
        # so the tile keeps its policy-assigned storage dtype.
        if v.dtype != c.dtype:
            v = v.astype(c.dtype)
        c = LowRankTile(c.u, v)
    _count(counter, KernelClass.TRSM_LR, flops_trsm_lr(c.shape[0], c.rank))
    return c


def syrk_dense(
    a: DenseTile, c: DenseTile, *, counter: FlopCounter | None = None
) -> DenseTile:
    """(1)-SYRK — dense ``C <- C - A @ A.T``, in place."""
    if a.shape[0] != c.shape[0] or c.shape[0] != c.shape[1]:
        raise KernelError(f"SYRK shape mismatch: A {a.shape} vs C {c.shape}")
    c.data -= a.data @ a.data.T
    _count(counter, KernelClass.SYRK_DENSE, flops_syrk_dense(c.shape[0]))
    return c


def syrk_lr(
    a: LowRankTile, c: DenseTile, *, counter: FlopCounter | None = None
) -> DenseTile:
    """(3)-SYRK — ``C <- C - U (V^T V) U^T`` with low-rank ``A = U V^T``."""
    if a.shape[0] != c.shape[0] or c.shape[0] != c.shape[1]:
        raise KernelError(f"SYRK shape mismatch: A {a.shape} vs C {c.shape}")
    if a.rank > 0:
        w = a.v.T @ a.v
        x = a.u @ w
        c.data -= x @ a.u.T
    _count(counter, KernelClass.SYRK_LR, flops_syrk_lr(c.shape[0], a.rank))
    return c


def gemm_dense(
    a: DenseTile, b: DenseTile, c: DenseTile, *, counter: FlopCounter | None = None
) -> DenseTile:
    """(1)-GEMM — dense ``C <- C - A @ B.T``, accumulated in place.

    One ``dgemm`` (α = −1, β = 1) on the Fortran view ``Cᵀ ← Cᵀ − B Aᵀ``
    with the interpreter lock released, as ``matmul`` releases it: no
    product temporary, no second pass to subtract it.  While the BLAS
    K-block covers the tile width this is bitwise ``c -= a @ b.T``
    (OpenBLAS, measured up to b = 300).
    """
    if a.shape[1] != b.shape[1] or c.shape != (a.shape[0], b.shape[0]):
        raise KernelError(
            f"GEMM shape mismatch: A {a.shape}, B {b.shape}, C {c.shape}"
        )
    (m, k), n = a.shape, b.shape[0]
    c_ptr, a_ptr, b_ptr = _raw("GEMM", c.data, a.data, b.data)
    # Fortran views: Bᵀ (k x n) applied transposed, Aᵀ (k x m), Cᵀ (n x m)
    _DGEMM(
        b"T", b"N", _int(n), _int(m), _int(k), ctypes.byref(_MINUS_ONE),
        b_ptr, _int(max(k, 1)), a_ptr, _int(max(k, 1)),
        ctypes.byref(_ONE), c_ptr, _int(max(n, 1)),
    )
    _count(counter, KernelClass.GEMM_DENSE, flops_gemm_dense(c.shape[0]))
    return c


# ----------------------------------------------------------------------
# Mixed-format GEMMs writing into a dense C (regions 2 and 3)
# ----------------------------------------------------------------------
def gemm_dense_lrd(
    a: Tile, b: Tile, c: DenseTile, *, counter: FlopCounter | None = None
) -> DenseTile:
    """(2)-GEMM — dense C, exactly one low-rank operand.

    ``C <- C - U_A (B V_A)^T`` when A is low-rank, or symmetrically
    ``C <- C - (A V_B) U_B^T`` (a band never issues it; a per-tile format
    map does).
    """
    if isinstance(a, LowRankTile) and isinstance(b, DenseTile):
        if a.rank > 0:
            c.data -= a.u @ (b.data @ a.v).T
        k = a.rank
    elif isinstance(a, DenseTile) and isinstance(b, LowRankTile):
        if b.rank > 0:
            c.data -= (a.data @ b.v) @ b.u.T
        k = b.rank
    else:
        raise KernelError(
            "(2)-GEMM requires exactly one low-rank operand, got "
            f"A={type(a).__name__}, B={type(b).__name__}"
        )
    _count(counter, KernelClass.GEMM_DENSE_LRD, flops_gemm_dense_lrd(c.shape[0], k))
    return c


def gemm_dense_lrlr(
    a: LowRankTile, b: LowRankTile, c: DenseTile, *, counter: FlopCounter | None = None
) -> DenseTile:
    """(3)-GEMM (new) — dense C, both operands low-rank.

    ``C <- C - U_A (V_A^T V_B) U_B^T`` evaluated thin-first.
    """
    if a.rank > 0 and b.rank > 0:
        w = a.v.T @ b.v
        c.data -= (a.u @ w) @ b.u.T
    _count(
        counter,
        KernelClass.GEMM_DENSE_LRLR,
        flops_gemm_dense_lrlr(c.shape[0], a.rank, b.rank),
    )
    return c


# ----------------------------------------------------------------------
# GEMM writing into a low-rank C (regions 5 and 6) — formation, then one
# rounding at the memory-designation boundary
# ----------------------------------------------------------------------
def _lr_product(a: Tile, b: Tile):
    """Factors ``(u, v)`` with ``A @ B.T == u @ v.T``, and the pair's
    operand ranks ``(k_a, k_b)`` (``k_b`` is ``None`` for a dense
    operand on either side).

    The product is formed at the thinner of the two operand ranks:
    ``U_A (B V_A)ᵀ`` against a dense B, ``(A V_B) U_Bᵀ`` against a dense A,
    for two low-rank operands ``U_A (U_B (V_Bᵀ V_A))ᵀ`` when
    ``k_A < k_B``, else ``(U_A (V_Aᵀ V_B)) U_Bᵀ``, and for two dense
    operands (tiles of a per-tile format map) ``A`` and ``B`` themselves,
    width ``b``: the sum then takes the dense path, so any map is valid.
    """
    a_lr, b_lr = isinstance(a, LowRankTile), isinstance(b, LowRankTile)
    if a_lr and b_lr:
        if a.rank < b.rank:
            return a.u, b.u @ (b.v.T @ a.v), (a.rank, b.rank)
        return a.u @ (a.v.T @ b.v), b.u, (a.rank, b.rank)
    if a_lr:
        return a.u, b.data @ a.v, (a.rank, None)
    if b_lr:
        return a.data @ b.v, b.u, (b.rank, None)
    return a.data, b.data, (a.shape[1], None)


def _gemm_lr(
    a, b, c: LowRankTile, rule: TruncationRule, counter, backend, tile_index
) -> tuple[LowRankTile, KernelClass, RecompressionResult]:
    """Body of :func:`gemm_lr`; also reports the kernel class that ran."""
    pairs = list(zip(a, b)) if isinstance(a, (list, tuple)) else [(a, b)]
    us, vs, ranks = zip(*(_lr_product(aj, bj) for aj, bj in pairs))
    u_upd = us[0] if len(us) == 1 else np.hstack(us)
    v_upd = vs[0] if len(vs) == 1 else np.hstack(vs)
    kc = c.rank
    backend = get_backend(backend)
    seed = None if tile_index is None else tile_seed(backend.seed, *tile_index)
    res = backend.recompress_update(c, u_upd, v_upd, rule, seed=seed)
    kind = (
        KernelClass.GEMM_LR
        if any(kb is not None for _, kb in ranks)
        else KernelClass.GEMM_LR_DENSE
    )
    # a pending tile decided dense is never rounded
    rounded = not (isinstance(c, PendingTile) and c.dense)
    _count(counter, kind, flops_gemm_lr_fused(c.shape[0], kc, ranks, rounded))
    return res.tile, kind, res


def gemm_lr(
    a,
    b,
    c: LowRankTile,
    rule: TruncationRule,
    *,
    counter: FlopCounter | None = None,
    backend=None,
    tile_index: tuple[int, int] | None = None,
) -> tuple[LowRankTile, RecompressionResult]:
    """(5)/(6)-GEMM — low-rank ``C <- C - Σ_j A_j B_jᵀ``, rounded once.

    ``a`` and ``b`` are one operand pair (HCORE_DGEMM, the paper's
    per-update kernel) or equal-length sequences of them (the fused
    left-looking update: every panel product of the tile at once).  Each
    product is formed at the thinner of its operand ranks
    (:func:`_lr_product`), the factors are laid side by side, and
    :meth:`CompressionBackend.recompress_update
    <repro.linalg.backends.CompressionBackend.recompress_update>` rounds
    the sum in one go.  The returned :class:`RecompressionResult` carries
    the rank-growth flag that drives the dynamic memory pool;
    ``tile_index``, the destination's coordinates, seeds a randomized
    backend's wide roundings (:func:`~repro.linalg.backends.tile_seed`).

    Recorded as (6)-GEMM when some pair has two low-rank operands, else
    as (5)-GEMM, at the cost of
    :func:`~repro.linalg.flops.flops_gemm_lr_fused`.
    """
    tile, _, res = _gemm_lr(a, b, c, rule, counter, backend, tile_index)
    return tile, res


# ----------------------------------------------------------------------
# Format-dispatching wrappers used by the tile algorithms
# ----------------------------------------------------------------------
def trsm_auto(
    l_tile: DenseTile,
    c: Tile,
    *,
    counter: FlopCounter | None = None,
) -> Tile:
    """Dispatch TRSM on the format of the panel tile ``c``."""
    if isinstance(c, DenseTile):
        return trsm_dense(l_tile, c, counter=counter)
    return trsm_lr(l_tile, c, counter=counter)


def syrk_auto(
    a: Tile,
    c: DenseTile,
    *,
    counter: FlopCounter | None = None,
) -> DenseTile:
    """Dispatch SYRK on the format of the panel tile ``a``."""
    if isinstance(a, DenseTile):
        return syrk_dense(a, c, counter=counter)
    return syrk_lr(a, c, counter=counter)


def gemm_auto(
    a,
    b,
    c: Tile,
    rule: TruncationRule,
    *,
    counter: FlopCounter | None = None,
    backend=None,
    tile_index: tuple[int, int] | None = None,
) -> tuple[Tile, KernelClass, RecompressionResult | None]:
    """Dispatch ``C <- C - A B^T`` on the formats of all three tiles.

    Returns the (possibly new) destination tile, the kernel class that ran,
    and the recompression result for low-rank destinations (else ``None``).
    A low-rank destination also takes equal-length *sequences* of operand
    tiles — every panel product of the tile — and rounds their sum once
    (:func:`gemm_lr`); dense destinations never recompress and take one
    pair per call, so their update order (and bits) is the caller's.
    ``backend`` selects the compression backend of the rounding and
    ``tile_index`` (the destination's coordinates) seeds it where it is
    randomized.
    """
    if not isinstance(c, DenseTile):  # low-rank, or pending its one compression
        return _gemm_lr(a, b, c, rule, counter, backend, tile_index)
    if isinstance(a, DenseTile) and isinstance(b, DenseTile):
        return gemm_dense(a, b, c, counter=counter), KernelClass.GEMM_DENSE, None
    if isinstance(a, LowRankTile) and isinstance(b, LowRankTile):
        return (
            gemm_dense_lrlr(a, b, c, counter=counter),
            KernelClass.GEMM_DENSE_LRLR,
            None,
        )
    return (
        gemm_dense_lrd(a, b, c, counter=counter),
        KernelClass.GEMM_DENSE_LRD,
        None,
    )
