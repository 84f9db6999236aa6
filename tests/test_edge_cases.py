"""Edge-case tests across modules: ragged tiles, degenerate shapes,
extreme parameters."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro import TruncationRule, st_3d_exp_problem
from repro.linalg import (
    DenseTile,
    default_backend,
    gemm_dense_lrd,
    gemm_lr,
    trsm_lr,
)
from repro.matrix import BandTLRMatrix, TileDescriptor
from repro.core import solve_spd, tlr_cholesky
from repro.statistics import MaternParams, st_2d_exp_problem
from repro.runtime import MachineSpec, build_cholesky_graph, simulate
from repro.distribution import ProcessGrid, TwoDBlockCyclic

RULE = TruncationRule(eps=1e-10, relative=True)


class TestRaggedTiles:
    """The last tile row/column is smaller when b does not divide n."""

    def test_rectangular_lr_gemm(self):
        rng = np.random.default_rng(0)
        # C is 20x32, A is 20x32, B is 32x32 (as when m is the last tile).
        a = default_backend().compress(
            rng.standard_normal((20, 3)) @ rng.standard_normal((3, 32)), RULE
        )
        b = default_backend().compress(
            rng.standard_normal((32, 2)) @ rng.standard_normal((2, 32)), RULE
        )
        c0 = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 32))
        c = default_backend().compress(c0, RULE)
        out, res = gemm_lr(a, b, c, RULE)
        ref = c0 - a.to_dense() @ b.to_dense().T
        np.testing.assert_allclose(out.to_dense(), ref, atol=1e-7)

    def test_rectangular_mixed_gemm(self):
        rng = np.random.default_rng(1)
        a = default_backend().compress(
            rng.standard_normal((20, 2)) @ rng.standard_normal((2, 16)), RULE
        )
        bop = DenseTile(rng.standard_normal((24, 16)))
        c = DenseTile(rng.standard_normal((20, 24)))
        c0 = c.data.copy()
        gemm_dense_lrd(a, bop, c)
        np.testing.assert_allclose(
            c.data, c0 - a.to_dense() @ bop.data.T, atol=1e-8
        )

    def test_rectangular_trsm_lr(self):
        rng = np.random.default_rng(2)
        spd = rng.standard_normal((16, 16))
        l = np.tril(sla.cholesky(spd @ spd.T + 16 * np.eye(16), lower=True))
        c = default_backend().compress(
            rng.standard_normal((20, 3)) @ rng.standard_normal((3, 16)), RULE
        )
        out = trsm_lr(DenseTile(l), c)
        ref = c.to_dense() @ np.linalg.inv(l).T
        np.testing.assert_allclose(out.to_dense(), ref, atol=1e-8)

    @pytest.mark.parametrize("n", [451, 500, 509])
    def test_factorize_and_solve_ragged(self, n):
        prob = st_3d_exp_problem(n, 64, seed=3, nugget=1e-3)
        m = BandTLRMatrix.from_problem(prob, TruncationRule(eps=1e-8), 2)
        tlr_cholesky(m)
        a = prob.dense()
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(n)
        x = solve_spd(m, a @ x_true)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-5


class TestDegenerateShapes:
    def test_single_tile_matrix(self):
        prob = st_3d_exp_problem(64, 64, seed=0)
        m = BandTLRMatrix.from_problem(prob, TruncationRule(eps=1e-8), 1)
        tlr_cholesky(m)
        a = prob.dense()
        l = m.to_dense(lower_only=True)
        np.testing.assert_allclose(l @ l.T, a, atol=1e-10)

    def test_two_tile_matrix(self):
        prob = st_3d_exp_problem(128, 64, seed=0)
        m = BandTLRMatrix.from_problem(prob, TruncationRule(eps=1e-8), 1)
        tlr_cholesky(m)
        a = prob.dense()
        l = m.to_dense(lower_only=True)
        err = np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)
        assert err < 1e-7

    def test_descriptor_single_tile(self):
        d = TileDescriptor(10, 10)
        assert d.ntiles == 1
        assert list(d.lower_tiles()) == [(0, 0)]
        assert d.count_off_band(1) == 0

    def test_simulate_single_task_graph(self):
        g = build_cholesky_graph(1, 1, 64, lambda i, j: 1)
        res = simulate(
            g,
            TwoDBlockCyclic(ProcessGrid(1, 1)),
            MachineSpec(nodes=1, cores_per_node=1),
        )
        assert res.makespan > 0
        assert res.comm.messages == 0


class Test2DProblems:
    def test_factory_shape(self):
        prob = st_2d_exp_problem(256, 64, seed=0)
        assert prob.ndim == 2
        assert prob.n == 256

    def test_2d_factorization_correct(self):
        prob = st_2d_exp_problem(512, 64, seed=1)
        m = BandTLRMatrix.from_problem(prob, TruncationRule(eps=1e-8), 1)
        tlr_cholesky(m)
        a = prob.dense()
        l = m.to_dense(lower_only=True)
        err = np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)
        assert err < 1e-6

    def test_2d_ranks_lower_than_3d(self):
        rule = TruncationRule(eps=1e-6)
        m2 = BandTLRMatrix.from_problem(st_2d_exp_problem(1000, 125, seed=2), rule, 1)
        m3 = BandTLRMatrix.from_problem(st_3d_exp_problem(1000, 125, seed=2), rule, 1)
        assert m2.rank_stats()[1] < m3.rank_stats()[1]


class TestExtremeParameters:
    def test_smooth_kernel_factorizes(self):
        """High smoothness (nu = 2.5 closed form) stays SPD and accurate
        with an adequate nugget (smoother kernels are closer to singular)."""
        smooth_prob = st_3d_exp_problem(
            512, 64, seed=4, params=MaternParams(1.0, 0.1, 2.5), nugget=1e-3
        )
        m = BandTLRMatrix.from_problem(smooth_prob, TruncationRule(eps=1e-8), 1)
        tlr_cholesky(m)
        a = smooth_prob.dense()
        l = m.to_dense(lower_only=True)
        assert np.linalg.norm(l @ l.T - a) / np.linalg.norm(a) < 1e-6

    def test_bessel_branch_kernel_factorizes(self):
        """Non-half-integer smoothness goes through scipy.special.kv."""
        prob = st_3d_exp_problem(
            343, 49, seed=5, params=MaternParams(1.0, 0.2, 1.0), nugget=1e-4
        )
        m = BandTLRMatrix.from_problem(prob, TruncationRule(eps=1e-8), 1)
        tlr_cholesky(m)
        a = prob.dense()
        l = m.to_dense(lower_only=True)
        assert np.linalg.norm(l @ l.T - a) / np.linalg.norm(a) < 1e-6

    def test_tiny_correlation_length_nearly_diagonal(self):
        """theta2 -> 0 makes the covariance nearly diagonal: rank ~ 0
        off-diagonal tiles and a trivially easy factorization."""
        prob = st_3d_exp_problem(
            512, 64, seed=6, params=MaternParams(1.0, 1e-4, 0.5)
        )
        m = BandTLRMatrix.from_problem(prob, TruncationRule(eps=1e-8), 1)
        _, avg, _ = m.rank_stats()
        assert avg < 2.0

    def test_zero_rank_tiles_through_factorization(self):
        """Far tiles may compress to rank 0; every kernel must cope."""
        prob = st_3d_exp_problem(
            512, 64, seed=7, params=MaternParams(1.0, 0.005, 0.5)
        )
        m = BandTLRMatrix.from_problem(prob, TruncationRule(eps=1e-6), 1)
        grid = m.rank_grid()
        assert (grid == 0).any()
        tlr_cholesky(m)
        a = prob.dense()
        l = m.to_dense(lower_only=True)
        assert np.linalg.norm(l @ l.T - a) / np.linalg.norm(a) < 1e-5
