"""The lock-free LAPACK route of :mod:`repro.linalg.blas`.

Each wrapper is the f2py call it replaces, bit for bit and layout for
layout; it releases the interpreter lock where f2py holds it; and it
raises the library's typed errors where LAPACK reports a failure.
"""

import ast
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

from repro import TruncationRule, st_3d_exp_problem
from repro.core import tlr_cholesky
from repro.linalg import blas
from repro.linalg.tiles import DenseTile
from repro.matrix import BandTLRMatrix
from repro.utils import CompressionError, KernelError, NotPositiveDefiniteError

SHAPES = [(90, 24), (24, 90), (40, 40), (37, 35), (60, 1), (1, 60), (30, 0)]
DTYPES = [np.float64, np.float32]


def same(ref: np.ndarray, got: np.ndarray) -> None:
    """Equal bits, dtype, shape and memory order."""
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.flags.f_contiguous == ref.flags.f_contiguous
    assert got.flags.c_contiguous == ref.flags.c_contiguous
    np.testing.assert_array_equal(got, ref, strict=True)


def operand(shape, dtype, order, seed=0):
    a = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    return np.asarray(a, order=order)


def spd(n, seed=0):
    x = np.random.default_rng(seed).standard_normal((n, n))
    return x @ x.T + n * np.eye(n)


@pytest.mark.parametrize("overwrite", [False, True])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
class TestParityWithF2py:
    def test_geqrf_orgqr(self, shape, dtype, order, overwrite):
        geqrf, orgqr = lapack.get_lapack_funcs(("geqrf", "orgqr"), dtype=dtype)
        ref_in, got_in = operand(shape, dtype, order), operand(shape, dtype, order)
        qr, tau, _, info = geqrf(ref_in, overwrite_a=overwrite)
        assert info == 0
        got_qr, got_tau = blas.geqrf(got_in, overwrite)
        same(qr, got_qr)
        same(tau, got_tau)
        same(ref_in, got_in)  # what overwrite did to the input, too
        k = min(shape)
        q, _, info = orgqr(qr[:, :k].copy(order="F"), tau, overwrite_a=overwrite)
        assert info == 0
        same(q, blas.orgqr(got_qr[:, :k].copy(order="F"), got_tau, overwrite))

    def test_gesdd(self, shape, dtype, order, overwrite):
        ref_in, got_in = operand(shape, dtype, order), operand(shape, dtype, order)
        ref = sla.svd(
            ref_in, full_matrices=False, lapack_driver="gesdd",
            check_finite=False, overwrite_a=overwrite,
        )
        for r, g in zip(ref, blas.gesdd(got_in, overwrite)):
            same(r, g)
        same(ref_in, got_in)


@pytest.mark.parametrize("dtype", DTYPES)
def test_gesdd_workspace_is_scipys(dtype):
    """The cached LWORK values are the ones scipy.linalg.svd passes."""
    from scipy.linalg.lapack import _compute_lwork

    (query,) = lapack.get_lapack_funcs(("gesdd_lwork",), dtype=dtype)
    char = np.dtype(dtype).char
    for m, n in [(1, 1), (35, 35), (36, 200), (200, 36), (120, 120), (400, 200)]:
        ref = _compute_lwork(query, m, n, compute_uv=True, full_matrices=False)
        assert blas.gesdd_lwork(char, m, n) == ref


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 2, 50, 200])
def test_potrf_and_trtri(n, order):
    a = np.asarray(spd(n), order=order)
    l = sla.cholesky(a, lower=True, check_finite=False)
    same(l, blas.potrf(a))
    inv, info = lapack.dtrtri(l.T, lower=0)
    assert info == 0
    same(inv, blas.trtri(l.T))


@pytest.mark.parametrize("b_dtype", DTYPES)
@pytest.mark.parametrize("b_order", ["C", "F"])
@pytest.mark.parametrize("l_order", ["C", "F"])
@pytest.mark.parametrize("k", [0, 1, 2, 40, 100])
def test_trsm(k, l_order, b_order, b_dtype):
    """Both views of L, one and many right-hand sides, fp32 V solved in fp64."""
    n = 100
    l = np.asarray(sla.cholesky(spd(n), lower=True), order=l_order)
    b = operand((n, k), b_dtype, b_order, seed=1)
    same(sla.solve_triangular(l, b, lower=True, check_finite=False), blas.trsm(l, b))


class TestTypedFailures:
    def test_gesdd_nan_is_a_compression_error(self):
        a = operand((20, 10), np.float64, "F")
        a[3, 4] = np.nan
        with pytest.raises(CompressionError, match="gesdd"):
            blas.gesdd(a)

    def test_potrf_names_the_tile(self):
        a = spd(16)
        a[5, 5] = -1.0
        with pytest.raises(NotPositiveDefiniteError) as info:
            blas.potrf(a, (3, 3))
        assert info.value.tile_index == (3, 3)
        assert str(info.value).startswith("POTRF failed on tile (3, 3): 6-th")

    def test_trtri_singular_is_a_kernel_error(self):
        u = np.triu(operand((8, 8), np.float64, "F"))
        u[2, 2] = 0.0
        with pytest.raises(KernelError, match="singular"):
            blas.trtri(u)

    def test_other_dtypes_are_refused(self):
        with pytest.raises(KernelError, match="float32 or float64"):
            blas.geqrf(np.ones((4, 2), dtype=np.int64))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_spd_diagonal_tile(self, workers):
        """A broken diagonal tile fails its POTRF as itself at any worker
        count, naming the tile."""
        problem = st_3d_exp_problem(256, 64, seed=3)
        m = BandTLRMatrix.from_problem(problem, TruncationRule(eps=1e-6), 2)
        m.tiles[(2, 2)] = DenseTile(-np.eye(64))
        with pytest.raises(NotPositiveDefiniteError) as info:
            tlr_cholesky(m, n_workers=workers)
        assert info.value.tile_index == (2, 2)
        assert str(info.value).startswith("POTRF failed on tile (2, 2):")


def longest_stall(call) -> float:
    """The longest stretch of ``call()`` during which a pure-Python
    counter thread made no progress, as a fraction of the call."""
    stop, ready = threading.Event(), threading.Event()
    stalls = []

    def count():
        last = time.perf_counter()
        ready.set()
        while not stop.is_set():
            now = time.perf_counter()
            if now - last > 1e-3:
                stalls.append((last, now))
            last = now

    counter = threading.Thread(target=count)
    counter.start()
    try:
        ready.wait()
        start = time.perf_counter()
        call()
        end = time.perf_counter()
    finally:
        stop.set()
        counter.join()
    covered = max((min(b, end) - max(a, start) for a, b in stalls), default=0.0)
    return max(covered, 0.0) / (end - start)


def test_the_lock_is_released():
    """A counter thread keeps counting through a long ctypes ``dgesdd``
    and is frozen for the whole f2py one."""
    a = operand((600, 600), np.float64, "F")
    lwork = blas.gesdd_lwork("d", 600, 600)
    assert longest_stall(
        lambda: lapack.dgesdd(a, compute_uv=1, full_matrices=0, lwork=lwork)
    ) > 0.8
    assert longest_stall(lambda: blas.gesdd(a)) < 0.5


@pytest.mark.parametrize("module", ["backends.py", "hcore.py"])
def test_kernels_take_no_f2py_lapack(module):
    """Neither the compressor nor the kernels import from scipy: every
    LAPACK call they make goes through :mod:`repro.linalg.blas`."""
    path = Path(blas.__file__).with_name(module)
    source = path.read_text()
    for banned in ("scipy.linalg.lapack", "sla.svd", "sla.cholesky", "sla.solve_triangular"):
        assert banned not in source
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("scipy") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("scipy")
