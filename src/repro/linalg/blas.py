"""BLAS and LAPACK on tile memory, with the interpreter lock released.

The f2py wrappers of :mod:`scipy.linalg.blas` and :mod:`scipy.linalg.lapack`
hold the interpreter lock for the whole call.  The same routines of
:mod:`scipy.linalg.cython_blas` and :mod:`scipy.linalg.cython_lapack`,
called through :mod:`ctypes`, release it around every foreign call, so
two worker threads overlap them as they overlap ``matmul``; it is the same
library routine with the same arguments, so the same bits.  This is the
one route every factorization task takes into BLAS and LAPACK.  Every
argument is a pointer (the Fortran convention) and arrays are handed over
as raw memory: to BLAS a C-contiguous ``m x n`` array is its ``n x m``
Fortran-order transpose.

Two kinds of entry point:

* in-place BLAS on the tiles' own memory: :data:`DTRMM` (the dense TRSM
  of :mod:`repro.linalg.hcore`) and :func:`sub_abt` (the (1)-GEMM, and
  the dense sum of a fused low-rank update,
  :meth:`CompressionBackend.recompress_update
  <repro.linalg.backends.CompressionBackend.recompress_update>`);
* thin wrappers with the semantics of the f2py call each replaces —
  :func:`geqrf`, :func:`orgqr` and :func:`gesdd` for the compressor,
  :func:`potrf`, :func:`trtri` and :func:`trsm` for the kernels.  Like
  f2py they work on a Fortran-ordered copy of the input unless
  ``overwrite`` allows the input itself, return Fortran-ordered results,
  and pass the same workspace sizes; each raises the library's typed
  error where ``info`` reports a failure.
"""

from __future__ import annotations

import ctypes

import numpy as np
from scipy.linalg import cython_blas, cython_lapack

from ..utils.exceptions import (
    CompressionError,
    KernelError,
    NotPositiveDefiniteError,
)

__all__ = [
    "DTRMM",
    "c_int",
    "geqrf",
    "gesdd",
    "gesdd_lwork",
    "orgqr",
    "potrf",
    "raw",
    "sub_abt",
    "trsm",
    "trtri",
]


def _nogil(module, name: str, n_args: int):
    """Routine ``name`` of ``module`` (:mod:`~scipy.linalg.cython_blas` or
    :mod:`~scipy.linalg.cython_lapack`), called through ``ctypes``
    (module docstring).  Its ``n_args`` arguments are declared
    ``c_void_p``: each is an address passed as an int (:func:`c_int`,
    :func:`_ptr`, ``ctypes.addressof``), the cheapest value ``ctypes``
    converts, or a one-letter ``bytes`` option."""
    capsule = module.__pyx_capi__[name]
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


def _by_dtype(module, name: str, n_args: int) -> dict:
    """The ``s``/``d`` routines ``name``, keyed by dtype char."""
    return {c: _nogil(module, p + name, n_args) for c, p in ("fs", "dd")}


DTRMM = _nogil(cython_blas, "dtrmm", 11)
_DTRSM = _nogil(cython_blas, "dtrsm", 11)
_DTRSV = _nogil(cython_blas, "dtrsv", 8)
#: ``?gemm`` and its ``(−1, 1)`` scalars, keyed by dtype char.
_GEMM = {
    "d": (_nogil(cython_blas, "dgemm", 13), ctypes.c_double(-1.0), ctypes.c_double(1.0)),
    "f": (_nogil(cython_blas, "sgemm", 13), ctypes.c_float(-1.0), ctypes.c_float(1.0)),
}
_GEQRF = _by_dtype(cython_lapack, "geqrf", 8)
_ORGQR = _by_dtype(cython_lapack, "orgqr", 9)
_GESDD = _by_dtype(cython_lapack, "gesdd", 14)
_DPOTRF = _nogil(cython_lapack, "dpotrf", 5)
_DTRTRI = _nogil(cython_lapack, "dtrtri", 6)
_ONE = ctypes.c_double(1.0)
_BYTE = ctypes.c_char

#: Optimal ``?gesdd`` (jobz = ``S``) workspace sizes keyed by (dtype char,
#: m, n).  The minimal LWORK selects a different internal blocking than
#: the optimal size ``scipy.linalg.svd`` queries — slower, and *bitwise
#: different* around n ≈ 35 — so every call passes the optimal one.
#: GIL-atomic dict ops; a racing duplicate query is benign.
_GESDD_LWORK: dict[tuple[str, int, int], int] = {}
#: Strictly-upper-triangle masks by order, for POTRF's clean-up.
_UPPER_MASK: dict[int, np.ndarray] = {}


class _Ints(dict):
    """Addresses of Fortran integer arguments, by value.  BLAS and LAPACK
    never write an input integer, so one per value serves every call on
    every thread; the ``c_int`` objects live as long as the table."""

    def __init__(self) -> None:
        super().__init__()
        self._boxes: list[ctypes.c_int] = []

    def __missing__(self, i: int) -> int:
        box = ctypes.c_int(i)
        self._boxes.append(box)
        address = self[i] = ctypes.addressof(box)
        return address


#: ``c_int(i)``: a Fortran integer argument.
c_int = _Ints().__getitem__


def _ptr(x: np.ndarray) -> int:
    """The address of the contiguous array ``x``, which the caller keeps
    alive across the foreign call: through the buffer protocol (half the
    cost of ``x.ctypes``) when ``x`` is writeable and not empty."""
    flags = x.flags
    if not (x.size and flags.writeable):
        return x.ctypes.data
    return ctypes.addressof(_BYTE.from_buffer(x.T if flags.f_contiguous else x))


def raw(kernel: str, *arrays: np.ndarray) -> list:
    """Pointers to ``arrays``, which BLAS reads and writes as raw memory:
    anything but C-contiguous float64 would be misread, so it is refused."""
    for d in arrays:
        if not (d.flags.c_contiguous and d.dtype == np.float64):
            raise KernelError(
                f"{kernel} runs in place and needs C-contiguous float64 "
                f"data, got {d.dtype} with strides {d.strides}"
            )
    return [_ptr(d) for d in arrays]


def _operand(x: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``x`` as BLAS can read it: in ``dtype``, C- or Fortran-contiguous
    (a copy only when it is neither, or of another dtype)."""
    x = x.astype(dtype, copy=False)
    if x.flags.c_contiguous or x.flags.f_contiguous:
        return x
    return np.ascontiguousarray(x)


def _fortran(x: np.ndarray) -> tuple[bool, int]:
    """Whether BLAS sees ``x`` (``r x w``) as ``xᵀ`` (C order) rather than
    ``x`` (Fortran order), and the leading dimension it sees."""
    r, w = x.shape
    return (True, max(w, 1)) if x.flags.c_contiguous else (False, max(r, 1))


def sub_abt(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``c -= a @ b.T`` in place: one ``dgemm``/``sgemm`` (α = −1, β = 1).

    ``c`` is C-contiguous float32 or float64, ``m x n``; ``a``
    (``m x w``) and ``b`` (``n x w``) are read in C or Fortran order and
    copied only when they are neither or not in ``c``'s dtype.  On the
    Fortran views this is ``Cᵀ ← Cᵀ − B Aᵀ``: no product temporary and no
    second pass to subtract it.  With every operand C-contiguous float64
    it is the call (1)-GEMM makes.
    """
    if c.dtype.char not in _GEMM or not c.flags.c_contiguous:
        raise KernelError(
            f"GEMM accumulates into C-contiguous float32/float64 data, got "
            f"{c.dtype} with strides {c.strides}"
        )
    (m, w), n = a.shape, b.shape[0]
    if w == 0 or c.size == 0:
        return
    a, b = _operand(a, c.dtype), _operand(b, c.dtype)
    gemm, minus_one, one = _GEMM[c.dtype.char]
    b_t, ldb = _fortran(b)  # op(first) = B: transposed when stored as Bᵀ
    a_t, lda = _fortran(a)  # op(second) = Aᵀ: as stored when that is Aᵀ
    gemm(
        b"T" if b_t else b"N", b"N" if a_t else b"T",
        c_int(n), c_int(m), c_int(w), ctypes.addressof(minus_one),
        _ptr(b), c_int(ldb), _ptr(a), c_int(lda),
        ctypes.addressof(one), _ptr(c), c_int(n),
    )


# ----------------------------------------------------------------------
# LAPACK with the f2py calls' semantics
# ----------------------------------------------------------------------
def _routine(table: dict, a: np.ndarray, name: str):
    """The ``s``/``d`` routine of ``table`` for ``a``'s dtype."""
    try:
        return table[a.dtype.char]
    except KeyError:
        raise KernelError(f"{name} takes float32 or float64, got {a.dtype}") from None


def _inout(a: np.ndarray, overwrite: bool, dtype=None) -> np.ndarray:
    """The array LAPACK overwrites, as f2py picks it: ``a`` itself when
    ``overwrite`` allows it and it is Fortran-contiguous and writeable in
    ``dtype`` (default: its own), else a Fortran-ordered copy."""
    if (
        overwrite
        and a.flags.f_contiguous
        and a.flags.writeable
        and (dtype is None or a.dtype == dtype)
    ):
        return a
    return np.array(a, dtype=dtype, order="F")


def geqrf(a: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``qr, tau`` of ``?geqrf(a, overwrite_a=overwrite)``: Householder QR.

    LWORK is f2py's default ``max(3n, 1)``: a larger one changes the
    blocking, and with it the bits.

    Raises
    ------
    CompressionError
        If LAPACK reports ``info != 0``.
    """
    routine = _routine(_GEQRF, a, "geqrf")
    m, n = a.shape
    qr = _inout(a, overwrite)
    tau = np.empty(min(m, n), a.dtype)
    lwork = 3 * n or 1
    work = np.empty(lwork, a.dtype)
    info = ctypes.c_int(0)
    routine(
        c_int(m), c_int(n), _ptr(qr), c_int(m or 1), _ptr(tau), _ptr(work),
        c_int(lwork), ctypes.addressof(info),
    )
    if info.value:
        raise CompressionError(f"geqrf failed (info={info.value})")
    return qr, tau


def orgqr(a: np.ndarray, tau: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """``q`` of ``?orgqr(a, tau, overwrite_a=overwrite)``: the first
    ``a.shape[1]`` columns of the Q whose reflectors :func:`geqrf` left,
    with f2py's default LWORK ``max(3n, 1)``.

    Raises
    ------
    CompressionError
        If LAPACK reports ``info != 0``.
    """
    routine = _routine(_ORGQR, a, "orgqr")
    m, n = a.shape
    q = _inout(a, overwrite)
    tau = np.ascontiguousarray(tau, dtype=a.dtype)
    lwork = 3 * n or 1
    work = np.empty(lwork, a.dtype)
    info = ctypes.c_int(0)
    routine(
        c_int(m), c_int(n), c_int(tau.size), _ptr(q), c_int(m or 1),
        _ptr(tau), _ptr(work), c_int(lwork), ctypes.addressof(info),
    )
    if info.value:
        raise CompressionError(f"orgqr failed (info={info.value})")
    return q


def gesdd_lwork(char: str, m: int, n: int) -> int:
    """The optimal LWORK of ``?gesdd`` (jobz = ``S``) on ``m x n``, cached:
    the routine's own workspace query (``lwork = -1``), rounded as
    ``scipy.linalg.svd`` rounds it (single precision takes the next float
    up before truncating)."""
    key = (char, m, n)
    lwork = _GESDD_LWORK.get(key)
    if lwork is None:
        # the query reads no array; each argument points at a valid one
        work, iwork = np.zeros(1, char), np.zeros(1, np.intc)
        d, info = _ptr(work), ctypes.c_int(0)
        _GESDD[char](
            b"S", c_int(m), c_int(n), d, c_int(m or 1), d, d, c_int(m or 1),
            d, c_int(min(m, n) or 1), d, c_int(-1), _ptr(iwork),
            ctypes.addressof(info),
        )
        if info.value:
            raise CompressionError(
                f"gesdd workspace query failed (info={info.value})"
            )
        value = work[0]
        if char == "f":
            value = np.nextafter(value, np.float32(np.inf), dtype=np.float32)
        lwork = _GESDD_LWORK[key] = int(value)
    return lwork


def gesdd(
    a: np.ndarray, overwrite: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``u, s, vt`` of ``scipy.linalg.svd(a, full_matrices=False,
    lapack_driver="gesdd", overwrite_a=overwrite)``: the economy SVD,
    ``?gesdd`` with jobz = ``S`` and the optimal LWORK
    (:func:`gesdd_lwork`).  ``u`` and ``vt`` are Fortran-ordered; an
    empty ``a`` gives empty factors, as in scipy.

    Raises
    ------
    CompressionError
        If LAPACK reports ``info != 0`` (no convergence, or a NaN entry).
    """
    routine = _routine(_GESDD, a, "gesdd")
    m, n = a.shape
    k = min(m, n)
    dtype = a.dtype
    u = np.empty((m, k), dtype, order="F")
    s = np.empty(k, dtype)
    vt = np.empty((k, n), dtype, order="F")
    if k == 0:
        return u, s, vt
    lwork = gesdd_lwork(dtype.char, m, n)
    a = _inout(a, overwrite)
    work, iwork = np.empty(lwork, dtype), np.empty(8 * k, np.intc)
    info = ctypes.c_int(0)
    routine(
        b"S", c_int(m), c_int(n), _ptr(a), c_int(m), _ptr(s), _ptr(u),
        c_int(m), _ptr(vt), c_int(k), _ptr(work), c_int(lwork), _ptr(iwork),
        ctypes.addressof(info),
    )
    if info.value:
        raise CompressionError(f"gesdd failed (info={info.value})")
    return u, s, vt


def potrf(a: np.ndarray, tile_index=None) -> np.ndarray:
    """``L`` of ``scipy.linalg.cholesky(a, lower=True)``: ``dpotrf`` (uplo
    ``L``) on a Fortran-ordered float64 copy of ``a``, the strict upper
    triangle then zeroed as f2py's ``clean`` does.

    Raises
    ------
    NotPositiveDefiniteError
        If ``a`` is not numerically positive definite; ``tile_index``
        names the tile, in the message and on the error.
    """
    n = a.shape[0]
    l = _inout(a, False, np.float64)
    info = ctypes.c_int(0)
    _DPOTRF(b"L", c_int(n), _ptr(l), c_int(n or 1), ctypes.addressof(info))
    if info.value > 0:
        raise NotPositiveDefiniteError(
            f"POTRF failed on tile {tile_index}: {info.value}-th leading "
            "minor of the array is not positive definite",
            tile_index,
        )
    if info.value < 0:
        raise KernelError(f"potrf failed (info={info.value})")
    upper = _UPPER_MASK.get(n)
    if upper is None:  # (i, j) with j > i, in l's Fortran order
        upper = _UPPER_MASK[n] = np.tri(n, n, -1, dtype=bool).T
    np.copyto(l, 0.0, where=upper)
    return l


def trtri(a: np.ndarray) -> np.ndarray:
    """``inv_c`` of ``dtrtri(a, lower=0)``: the inverse of the upper
    triangle of ``a``, computed on a Fortran-ordered float64 copy.

    Raises
    ------
    KernelError
        If the triangle is singular or LAPACK rejects an argument.
    """
    n = a.shape[0]
    inv = _inout(a, False, np.float64)
    info = ctypes.c_int(0)
    _DTRTRI(b"U", b"N", c_int(n), _ptr(inv), c_int(n or 1), ctypes.addressof(info))
    if info.value:
        raise KernelError(f"TRTRI: the factor is singular (info={info.value})")
    return inv


def trsm(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_triangular(l, b, lower=True)`` in float64:
    ``L⁻¹ B``, Fortran-ordered.  It is the solve inside the ``dtrtrs``
    that scipy calls, on the same view of ``l`` (its Fortran transpose,
    upper, when ``l`` is not Fortran-contiguous): one ``dtrsm``, or
    ``dtrsv`` for a single right-hand side as the bundled OpenBLAS's
    ``dtrtrs`` does.  Unlike ``dtrtrs`` it does not look for a zero on
    the diagonal: every ``L`` here comes from :func:`potrf`."""
    n = l.shape[0]
    if b.size == 0:
        return np.empty_like(b, dtype=np.float64)
    x = _inout(b, False, np.float64)
    if l.dtype == np.float64 and l.flags.f_contiguous:
        uplo, trans = b"L", b"N"
    else:
        l, uplo, trans = np.ascontiguousarray(l, dtype=np.float64), b"U", b"T"
    ld = c_int(n or 1)
    if x.shape[1] == 1:
        _DTRSV(uplo, trans, b"N", c_int(n), _ptr(l), ld, _ptr(x), c_int(1))
    else:
        _DTRSM(
            b"L", uplo, trans, b"N", c_int(n), c_int(x.shape[1]),
            ctypes.addressof(_ONE), _ptr(l), ld, _ptr(x), ld,
        )
    return x
