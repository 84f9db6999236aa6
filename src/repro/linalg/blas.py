"""In-place BLAS on tile memory, with the interpreter lock released.

The f2py wrappers of :mod:`scipy.linalg.blas` hold the interpreter lock
for the whole call.  The same routines of :mod:`scipy.linalg.cython_blas`,
called through :mod:`ctypes`, release it around every foreign call, so
two worker threads overlap them as they overlap ``matmul``; it is the same
library routine, so the same bits.  Every argument is a pointer (the
Fortran convention) and arrays are handed over as raw memory: to BLAS a
C-contiguous ``m x n`` array is its ``n x m`` Fortran-order transpose.

Both the (1)-GEMM and the dense sum of a fused low-rank update
(:meth:`CompressionBackend.recompress_update
<repro.linalg.backends.CompressionBackend.recompress_update>`) accumulate
through :func:`sub_abt`; :mod:`repro.linalg.hcore`'s dense TRSM calls
:data:`DTRMM`.
"""

from __future__ import annotations

import ctypes

import numpy as np
from scipy.linalg import cython_blas

from ..utils.exceptions import KernelError

__all__ = ["DTRMM", "c_int", "raw", "sub_abt"]


def _blas_nogil(name: str, n_args: int):
    """BLAS routine ``name`` of :mod:`scipy.linalg.cython_blas`, called
    through ``ctypes`` (module docstring)."""
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


DTRMM = _blas_nogil("dtrmm", 11)
#: ``?gemm`` and its ``(−1, 1)`` scalars, keyed by dtype char.
_GEMM = {
    "d": (_blas_nogil("dgemm", 13), ctypes.c_double(-1.0), ctypes.c_double(1.0)),
    "f": (_blas_nogil("sgemm", 13), ctypes.c_float(-1.0), ctypes.c_float(1.0)),
}


def c_int(i: int):
    """A Fortran integer argument."""
    return ctypes.byref(ctypes.c_int(i))


def raw(kernel: str, *arrays: np.ndarray) -> list[int]:
    """Addresses of ``arrays``, which BLAS reads and writes as raw memory:
    anything but C-contiguous float64 would be misread, so it is refused."""
    for d in arrays:
        if not (d.flags.c_contiguous and d.dtype == np.float64):
            raise KernelError(
                f"{kernel} runs in place and needs C-contiguous float64 "
                f"data, got {d.dtype} with strides {d.strides}"
            )
    return [d.ctypes.data for d in arrays]


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
        c_int(n), c_int(m), c_int(w), ctypes.byref(minus_one),
        b.ctypes.data, c_int(ldb), a.ctypes.data, c_int(lda),
        ctypes.byref(one), c.ctypes.data, c_int(n),
    )
