"""Unit tests for the ten HCORE (region)-kernels against dense references."""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest
import scipy.linalg as sla

from repro import st_3d_exp_problem
from repro.core import tlr_cholesky
from repro.linalg import (
    DenseTile,
    FlopCounter,
    KernelClass,
    LowRankTile,
    TruncationRule,
    default_backend,
    gemm_auto,
    gemm_dense,
    gemm_dense_lrd,
    gemm_dense_lrlr,
    gemm_lr,
    potrf_dense,
    syrk_dense,
    syrk_lr,
    trsm_dense,
    trsm_lr,
)
from repro.linalg.blas import sub_abt
from repro.matrix import BandTLRMatrix
from repro.statistics.matern import MaternParams
from repro.statistics.problem import st_2d_exp_problem
from repro.utils import KernelError, NotPositiveDefiniteError

RULE = TruncationRule(eps=1e-10, relative=True)
B = 32


@pytest.fixture()
def rng():
    return np.random.default_rng(11)


def spd(rng, n=B):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def lowrank(rng, m=B, n=B, k=4):
    a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
    return default_backend().compress(a, RULE), a


class TestPotrf:
    def test_matches_lapack(self, rng):
        a = spd(rng)
        t = DenseTile(a.copy())
        potrf_dense(t)
        np.testing.assert_allclose(t.data, np.tril(sla.cholesky(a, lower=True)))

    def test_zeroes_upper_triangle(self, rng):
        t = DenseTile(spd(rng))
        potrf_dense(t)
        assert np.all(np.triu(t.data, 1) == 0.0)

    def test_raises_on_indefinite(self):
        t = DenseTile(-np.eye(4))
        with pytest.raises(NotPositiveDefiniteError) as ei:
            potrf_dense(t, tile_index=(2, 2))
        assert ei.value.tile_index == (2, 2)

    def test_counts_flops(self, rng):
        c = FlopCounter()
        potrf_dense(DenseTile(spd(rng)), counter=c)
        assert c.per_class[KernelClass.POTRF_DENSE] == pytest.approx(B**3 / 3)

    def test_leaves_the_inverse_of_its_factor(self, rng):
        t = DenseTile(spd(rng))
        potrf_dense(t)
        assert t.inverse.flags.c_contiguous
        assert np.all(np.triu(t.inverse, 1) == 0.0)
        np.testing.assert_allclose(t.inverse @ t.data, np.eye(B), atol=1e-13)

    def test_inverse_is_never_copied_pickled_or_counted(self, rng):
        """A factored diagonal tile, copied or pickled, is byte for byte a
        plain tile holding the same factor."""
        t = DenseTile(spd(rng))
        potrf_dense(t)
        plain = DenseTile(t.data.copy())
        assert t.inverse is not None and plain.inverse is None
        assert pickle.dumps(t) == pickle.dumps(plain)
        for twin in (t.copy(), pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert twin.inverse is None
            assert pickle.dumps(twin) == pickle.dumps(plain)
        assert t.memory_bytes() == plain.memory_bytes() == B * B * 8


def factored_diagonal_tiles(dim, ell, n=600, b=100):
    """``L_kk`` of every diagonal tile of a dense factorization, each with
    the matching panel tile's original block (the last: random)."""
    make = st_2d_exp_problem if dim == 2 else st_3d_exp_problem
    problem = make(n, b, seed=3, params=MaternParams(1.0, ell, 0.5))
    m = BandTLRMatrix.from_problem(problem, RULE, problem.ntiles)
    tlr_cholesky(m)
    rng = np.random.default_rng(0)
    for k in range(m.ntiles):
        c = (
            problem.tile(k + 1, k) if k + 1 < m.ntiles
            else rng.standard_normal((b, b))
        )
        yield m.tile(k, k).data, c


def solve_triangular_factor(a, b):
    """Blocked right-looking Cholesky of dense ``a`` from ``sla.cholesky``,
    ``solve_triangular`` and ``matmul``: the dense kernels before TRSM
    became a multiply by ``L_kk⁻¹``."""
    a = a.copy()
    s = [slice(i, i + b) for i in range(0, a.shape[0], b)]
    for k, sk in enumerate(s):
        a[sk, sk] = sla.cholesky(a[sk, sk], lower=True)
        for sm in s[k + 1:]:
            a[sm, sk] = sla.solve_triangular(a[sk, sk], a[sm, sk].T, lower=True).T
        for m, sm in enumerate(s[k + 1:]):
            for sj in s[k + 1:k + 2 + m]:
                a[sm, sj] -= a[sm, sk] @ a[sj, sk].T
    return np.tril(a)


class TestTrsm:
    def test_dense_matches_reference(self, rng):
        l = np.tril(sla.cholesky(spd(rng), lower=True))
        c = rng.standard_normal((B, B))
        t = DenseTile(c.copy())
        trsm_dense(DenseTile(l), t)
        np.testing.assert_allclose(t.data, c @ np.linalg.inv(l).T, atol=1e-8)

    @pytest.mark.parametrize("ell", [0.1, 0.3, 1.0])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_dense_against_solve_triangular(self, dim, ell):
        """The multiply by ``L_kk⁻¹`` on the factored diagonal tiles of 2D
        and 3D exponential problems: backward error within 10·u·cond(L_kk)
        (measured ≤ 0.12), and the solve's answer to that accuracy."""
        u = np.finfo(np.float64).eps / 2
        for l, c in factored_diagonal_tiles(dim, ell):
            cond = np.linalg.cond(l)
            assert cond < 200
            t = DenseTile(c.copy())
            data = t.data
            trsm_dense(DenseTile(l), t)
            assert t.data is data  # in place
            x = t.data
            berr = np.linalg.norm(x @ l.T - c, 2) / (
                np.linalg.norm(x, 2) * np.linalg.norm(l, 2)
            )
            assert berr <= 10 * u * cond
            ref = sla.solve_triangular(l, c.T, lower=True).T
            assert np.linalg.norm(x - ref) <= 10 * u * cond * np.linalg.norm(ref)

    @pytest.mark.parametrize("ell", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_dense_factor_as_accurate_as_solve_triangulars(self, dim, nu, ell):
        """Multiplying by ``L_kk⁻¹`` loses accuracy with cond(L_kk), which a
        nugget of 1e-6 caps near √(b/1e-6) = 1e4 at b = 100 (reached here
        at ν = 2.5).  The whole all-dense factor's backward error
        ‖LLᵀ − A‖/‖A‖ stays within 16x that of the same blocked algorithm
        with ``solve_triangular``: measured ≤ 7.9x here (≤ 4e-15) and
        ≤ 11.5x at N = 1600, b = 200."""
        make = st_2d_exp_problem if dim == 2 else st_3d_exp_problem
        problem = make(800, 100, seed=3, params=MaternParams(1.0, ell, nu))
        assert problem.nugget == 1e-6
        a = problem.dense()
        m = BandTLRMatrix.from_problem(problem, RULE, problem.ntiles)
        tlr_cholesky(m)
        l = m.to_dense(lower_only=True)
        ref = solve_triangular_factor(a, 100)

        def berr(f):
            return np.linalg.norm(f @ f.T - a) / np.linalg.norm(a)

        assert berr(l) <= 16 * berr(ref)

    def test_dense_makes_a_missing_inverse_with_potrfs_call(self, rng):
        """A diagonal tile that arrived without its inverse (received from
        a rank, restored from a checkpoint) gives the same bits."""
        factored = DenseTile(spd(rng))
        potrf_dense(factored)
        arrived = pickle.loads(pickle.dumps(factored))
        assert arrived.inverse is None
        c = rng.standard_normal((B + 8, B))
        one, two = DenseTile(c.copy()), DenseTile(c.copy())
        trsm_dense(factored, one)
        trsm_dense(arrived, two)
        assert np.array_equal(arrived.inverse, factored.inverse)
        assert np.array_equal(one.data, two.data)

    def test_concurrent_trsms_share_one_inverse(self, rng):
        """Four threads TRSM against one diagonal tile that arrived without
        its inverse while a fifth keeps dropping it (ranks run inline share
        received tiles, and a panel closes on one while another still
        solves): every result is the solo one, bit for bit."""
        factored = DenseTile(spd(rng))
        potrf_dense(factored)
        arrived = pickle.loads(pickle.dumps(factored))
        cs = [rng.standard_normal((B, B)) for _ in range(4)]
        want = []
        for c in cs:
            t = DenseTile(c.copy())
            trsm_dense(factored, t)
            want.append(t.data)
        stop, wrong = threading.Event(), []

        def dropper():
            while not stop.is_set():
                arrived.inverse = None

        def solver(i):
            for _ in range(200):
                t = DenseTile(cs[i].copy())
                try:
                    trsm_dense(arrived, t)
                except Exception as exc:  # noqa: BLE001 - reported below
                    wrong.append(exc)
                    return
                if not np.array_equal(t.data, want[i]):
                    wrong.append(i)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            drop = threading.Thread(target=dropper)
            drop.start()
            solvers = [threading.Thread(target=solver, args=(i,)) for i in range(4)]
            for t in solvers:
                t.start()
            for t in solvers:
                t.join(timeout=60)
            stop.set()
            drop.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in [drop, *solvers])
        assert wrong == []

    def test_lr_matches_dense_expansion(self, rng):
        l = np.tril(sla.cholesky(spd(rng), lower=True))
        t, a = lowrank(rng)
        out = trsm_lr(DenseTile(l), t)
        np.testing.assert_allclose(out.to_dense(), a @ np.linalg.inv(l).T, atol=1e-8)

    def test_lr_preserves_rank(self, rng):
        l = np.tril(sla.cholesky(spd(rng), lower=True))
        t, _ = lowrank(rng, k=5)
        assert trsm_lr(DenseTile(l), t).rank == 5

    def test_lr_zero_rank_passthrough(self, rng):
        l = np.tril(sla.cholesky(spd(rng), lower=True))
        t = LowRankTile.zero(B, B)
        assert trsm_lr(DenseTile(l), t).rank == 0

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(KernelError):
            trsm_dense(DenseTile(np.eye(4)), DenseTile(np.zeros((4, 5))))


class TestInPlaceGuard:
    """BLAS reads and writes the tiles as raw memory: a strided, Fortran
    or float32 array would be misread, so the in-place kernels refuse it."""

    VIEWS = {
        "strided": lambda: np.ones((B, 2 * B))[:, ::2],
        "fortran": lambda: np.ones((B, B), order="F"),
        "float32": lambda: np.ones((B, B), dtype=np.float32),
    }

    @pytest.mark.parametrize("view", sorted(VIEWS))
    def test_trsm_and_gemm_refuse_data_they_cannot_overwrite(self, rng, view):
        l = DenseTile(spd(rng))
        potrf_dense(l)
        a, b = DenseTile(rng.standard_normal((B, B))), DenseTile(np.eye(B))
        for kernel in (
            lambda c: trsm_dense(l, c),
            lambda c: gemm_dense(a, b, c),
        ):
            c = DenseTile(np.ones((B, B)))
            c.data = self.VIEWS[view]()  # reassigned after construction
            before = c.data.copy()
            with pytest.raises(KernelError, match="C-contiguous"):
                kernel(c)
            assert np.array_equal(c.data, before)

    @pytest.mark.parametrize("view", sorted(VIEWS))
    def test_gemm_refuses_operands_it_cannot_read(self, rng, view):
        for operand in ("a", "b"):
            tiles = {
                "a": DenseTile(rng.standard_normal((B, B))),
                "b": DenseTile(rng.standard_normal((B, B))),
            }
            tiles[operand].data = self.VIEWS[view]()
            c = DenseTile(np.ones((B, B)))
            with pytest.raises(KernelError, match="C-contiguous"):
                gemm_dense(tiles["a"], tiles["b"], c)
            assert np.array_equal(c.data, np.ones((B, B)))

    def test_trsm_refuses_an_inverse_of_another_size(self, rng):
        l = DenseTile(spd(rng))
        potrf_dense(l)
        l.data = np.tril(sla.cholesky(spd(rng, B // 2), lower=True))
        with pytest.raises(KernelError, match="inverse"):
            trsm_dense(l, DenseTile(np.ones((B, B // 2))))


class TestSubABt:
    """``blas.sub_abt``, the in-place ``c -= a @ b.T`` under (1)-GEMM and
    the dense sum of a fused update: operands in any layout and dtype,
    the destination C-contiguous float32/float64."""

    LAYOUTS = {
        "C": lambda x: x,
        "F": np.asfortranarray,
        "strided": lambda x: np.repeat(x, 2, axis=1)[:, ::2],
    }

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layout_a", sorted(LAYOUTS))
    @pytest.mark.parametrize("layout_b", sorted(LAYOUTS))
    def test_any_operand_layout(self, rng, dtype, layout_a, layout_b):
        c = rng.standard_normal((B, B - 3)).astype(dtype)
        a = self.LAYOUTS[layout_a](rng.standard_normal((B, 7)))
        b = self.LAYOUTS[layout_b](rng.standard_normal((B - 3, 7)))
        want = c - (a.astype(dtype) @ b.astype(dtype).T)
        sub_abt(c, a, b)
        assert c.dtype == dtype
        tol = 50 * np.finfo(dtype).eps * np.abs(want).max()
        assert np.abs(c - want).max() <= tol

    def test_dense_gemm_is_this_call(self, rng):
        c, a, b = (rng.standard_normal((B, B)) for _ in range(3))
        want = c.copy()
        gemm_dense(DenseTile(a), DenseTile(b), DenseTile(want))
        sub_abt(c, a, b)
        assert np.array_equal(c, want)

    def test_refuses_a_destination_it_cannot_overwrite(self, rng):
        a = b = np.ones((B, 2))
        for c in (np.ones((B, B), order="F"), np.ones((B, B), dtype=np.int64)):
            with pytest.raises(KernelError, match="C-contiguous"):
                sub_abt(c, a, b)


class TestSyrk:
    def test_dense(self, rng):
        a = rng.standard_normal((B, B))
        c0 = spd(rng)
        t = DenseTile(c0.copy())
        syrk_dense(DenseTile(a), t)
        np.testing.assert_allclose(t.data, c0 - a @ a.T, atol=1e-10)

    def test_lr_matches_expansion(self, rng):
        t, a = lowrank(rng)
        c0 = spd(rng)
        c = DenseTile(c0.copy())
        syrk_lr(t, c)
        np.testing.assert_allclose(c.data, c0 - a @ a.T, atol=1e-8)

    def test_lr_keeps_symmetry(self, rng):
        t, _ = lowrank(rng)
        c = DenseTile(spd(rng))
        syrk_lr(t, c)
        np.testing.assert_allclose(c.data, c.data.T, atol=1e-10)

    def test_zero_rank_noop(self, rng):
        c0 = spd(rng)
        c = DenseTile(c0.copy())
        syrk_lr(LowRankTile.zero(B, B), c)
        np.testing.assert_array_equal(c.data, c0)


class TestGemmDenseOutputs:
    def test_gemm_dense(self, rng):
        a, b = rng.standard_normal((B, B)), rng.standard_normal((B, B))
        c0 = rng.standard_normal((B, B))
        c = DenseTile(c0.copy())
        gemm_dense(DenseTile(a), DenseTile(b), c)
        np.testing.assert_allclose(c.data, c0 - a @ b.T, atol=1e-10)

    @pytest.mark.parametrize("b", [50, 100, 200])
    def test_gemm_dense_accumulates_in_place(self, rng, b):
        """One ``dgemm`` into the tile: ``c - a @ b.T`` to rounding, ragged
        shapes included, with the tile's own array updated."""
        for m, n in ((b, b), (b, b // 2 + 1), (b // 2 + 1, b)):
            a = rng.standard_normal((m, b))
            bt = rng.standard_normal((n, b))
            c0 = rng.standard_normal((m, n))
            c = DenseTile(c0.copy())
            data = c.data
            gemm_dense(DenseTile(a), DenseTile(bt), c)
            assert c.data is data
            # the standard γ_b bound of a length-b dot product
            scale = np.abs(c0) + np.abs(a) @ np.abs(bt).T
            err = np.abs(c.data - (c0 - a @ bt.T))
            assert np.all(err <= b * np.finfo(float).eps * scale)

    def test_gemm_dense_shape_mismatch_rejected(self):
        with pytest.raises(KernelError):
            gemm_dense(
                DenseTile(np.ones((4, 3))), DenseTile(np.ones((5, 2))),
                DenseTile(np.zeros((4, 5))),
            )

    def test_gemm_lrd_a_lowrank(self, rng):
        ta, a = lowrank(rng)
        b = rng.standard_normal((B, B))
        c0 = rng.standard_normal((B, B))
        c = DenseTile(c0.copy())
        gemm_dense_lrd(ta, DenseTile(b), c)
        np.testing.assert_allclose(c.data, c0 - a @ b.T, atol=1e-8)

    def test_gemm_lrd_b_lowrank(self, rng):
        a = rng.standard_normal((B, B))
        tb, b = lowrank(rng)
        c0 = rng.standard_normal((B, B))
        c = DenseTile(c0.copy())
        gemm_dense_lrd(DenseTile(a), tb, c)
        np.testing.assert_allclose(c.data, c0 - a @ b.T, atol=1e-8)

    def test_gemm_lrd_rejects_two_lowrank(self, rng):
        ta, _ = lowrank(rng)
        tb, _ = lowrank(rng)
        with pytest.raises(KernelError):
            gemm_dense_lrd(ta, tb, DenseTile(np.zeros((B, B))))

    def test_gemm_lrlr(self, rng):
        ta, a = lowrank(rng, k=3)
        tb, b = lowrank(rng, k=5)
        c0 = rng.standard_normal((B, B))
        c = DenseTile(c0.copy())
        gemm_dense_lrlr(ta, tb, c)
        np.testing.assert_allclose(c.data, c0 - a @ b.T, atol=1e-8)


class TestGemmLowRankOutputs:
    def test_gemm_lr_dense(self, rng):
        ta, a = lowrank(rng, k=3)
        b = rng.standard_normal((B, B))
        tc, c0 = lowrank(rng, k=4)
        out, res = gemm_lr(ta, DenseTile(b), tc, RULE)
        np.testing.assert_allclose(out.to_dense(), c0 - a @ b.T, atol=1e-7)
        assert res.rank_before == 3 + 4

    def test_gemm_lr(self, rng):
        ta, a = lowrank(rng, k=3)
        tb, b = lowrank(rng, k=2)
        tc, c0 = lowrank(rng, k=4)
        out, res = gemm_lr(ta, tb, tc, RULE)
        np.testing.assert_allclose(out.to_dense(), c0 - a @ b.T, atol=1e-7)
        # Update rank bounded by k_b, so stacked rank is 4 + 2.
        assert res.rank_before == 6

    def test_gemm_lr_growth_flag(self, rng):
        ta, _ = lowrank(rng, k=3)
        tb, _ = lowrank(rng, k=3)
        tc, _ = lowrank(rng, k=1)
        _, res = gemm_lr(ta, tb, tc, RULE)
        assert res.grew  # rank must exceed the previous rank 1

    def test_gemm_lr_zero_rank_operands(self, rng):
        tc, c0 = lowrank(rng, k=4)
        out, res = gemm_lr(LowRankTile.zero(B, B), LowRankTile.zero(B, B), tc, RULE)
        np.testing.assert_allclose(out.to_dense(), c0, atol=1e-8)
        assert not res.grew


class TestGemmAuto:
    def test_dispatch_all_dense(self, rng):
        c, _, recomp = gemm_auto(
            DenseTile(rng.standard_normal((B, B))),
            DenseTile(rng.standard_normal((B, B))),
            DenseTile(rng.standard_normal((B, B))),
            RULE,
        )
        assert recomp is None
        assert isinstance(c, DenseTile)

    @pytest.mark.parametrize(
        "a_lr,b_lr,expected",
        [
            (False, False, KernelClass.GEMM_DENSE),
            (True, False, KernelClass.GEMM_DENSE_LRD),
            (False, True, KernelClass.GEMM_DENSE_LRD),
            (True, True, KernelClass.GEMM_DENSE_LRLR),
        ],
    )
    def test_dense_c_dispatch(self, rng, a_lr, b_lr, expected):
        mk = lambda lr: lowrank(rng)[0] if lr else DenseTile(rng.standard_normal((B, B)))
        _, kind, _ = gemm_auto(mk(a_lr), mk(b_lr), DenseTile(np.zeros((B, B))), RULE)
        assert kind is expected

    @pytest.mark.parametrize(
        "a_lr,b_lr,expected",
        [
            (True, False, KernelClass.GEMM_LR_DENSE),
            (False, True, KernelClass.GEMM_LR_DENSE),
            (True, True, KernelClass.GEMM_LR),
        ],
    )
    def test_lr_c_dispatch(self, rng, a_lr, b_lr, expected):
        mk = lambda lr: lowrank(rng)[0] if lr else DenseTile(rng.standard_normal((B, B)))
        _, kind, recomp = gemm_auto(mk(a_lr), mk(b_lr), lowrank(rng)[0], RULE)
        assert kind is expected
        assert recomp is not None

    def test_lr_c_dense_ab_is_a_full_width_update(self, rng):
        """Dense A and B under a low-rank C (a per-tile format map's case):
        the product enters at width b, and the dense sum is rounded."""
        a, b = rng.standard_normal((B, B)), rng.standard_normal((B, B))
        tc, c0 = lowrank(rng, k=2)
        out, kind, recomp = gemm_auto(DenseTile(a), DenseTile(b), tc, RULE)
        assert kind is KernelClass.GEMM_LR_DENSE
        assert recomp.rank_before == 2 + B
        np.testing.assert_allclose(out.to_dense(), c0 - a @ b.T, atol=1e-7)

    def test_mirror_case_numerics(self, rng):
        """A dense, B low-rank, C low-rank (upper-triangular variants)."""
        a = rng.standard_normal((B, B))
        tb, b = lowrank(rng, k=3)
        tc, c0 = lowrank(rng, k=2)
        out, kind, _ = gemm_auto(DenseTile(a), tb, tc, RULE)
        assert kind is KernelClass.GEMM_LR_DENSE
        np.testing.assert_allclose(out.to_dense(), c0 - a @ b.T, atol=1e-7)
