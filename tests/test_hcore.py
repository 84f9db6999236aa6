"""Unit tests for the ten HCORE (region)-kernels against dense references."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.linalg import (
    DenseTile,
    FlopCounter,
    KernelClass,
    LowRankTile,
    TruncationRule,
    compress_block,
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
    return compress_block(a, RULE), a


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


class TestTrsm:
    def test_dense_matches_reference(self, rng):
        l = np.tril(sla.cholesky(spd(rng), lower=True))
        c = rng.standard_normal((B, B))
        t = DenseTile(c.copy())
        trsm_dense(DenseTile(l), t)
        np.testing.assert_allclose(t.data, c @ np.linalg.inv(l).T, atol=1e-8)

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
