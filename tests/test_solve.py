"""Unit tests for TLR triangular solves, SPD solve, and log-determinant."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.matrix import BandTLRMatrix
from repro.core import backward_solve, forward_solve, log_det, solve_spd, tlr_cholesky
from repro.utils import ConfigurationError


@pytest.fixture(scope="module")
def factored(small_problem_mod, rule8_mod):
    m = BandTLRMatrix.from_problem(small_problem_mod, rule8_mod, band_size=2)
    tlr_cholesky(m)
    return m


@pytest.fixture(scope="module")
def small_problem_mod():
    from repro import st_3d_exp_problem

    return st_3d_exp_problem(512, 64, seed=42)


@pytest.fixture(scope="module")
def rule8_mod():
    from repro import TruncationRule

    return TruncationRule(eps=1e-8)


@pytest.fixture(scope="module")
def dense_l(factored):
    return factored.to_dense(lower_only=True)


class TestForwardSolve:
    def test_matches_dense(self, factored, dense_l, rng):
        b = rng.standard_normal(512)
        y = forward_solve(factored, b)
        ref = sla.solve_triangular(dense_l, b, lower=True)
        np.testing.assert_allclose(y, ref, atol=1e-8)

    def test_multirhs(self, factored, dense_l, rng):
        b = rng.standard_normal((512, 3))
        y = forward_solve(factored, b)
        ref = sla.solve_triangular(dense_l, b, lower=True)
        assert y.shape == (512, 3)
        np.testing.assert_allclose(y, ref, atol=1e-8)

    def test_does_not_mutate_rhs(self, factored, rng):
        b = rng.standard_normal(512)
        b0 = b.copy()
        forward_solve(factored, b)
        np.testing.assert_array_equal(b, b0)

    def test_wrong_length_rejected(self, factored):
        with pytest.raises(ConfigurationError):
            forward_solve(factored, np.zeros(100))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, factored, bad):
        """Not a silent non-finite solution."""
        b = np.ones(512)
        b[7] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            solve_spd(factored, b)


class TestBackwardSolve:
    def test_matches_dense(self, factored, dense_l, rng):
        b = rng.standard_normal(512)
        x = backward_solve(factored, b)
        ref = sla.solve_triangular(dense_l, b, lower=True, trans="T")
        np.testing.assert_allclose(x, ref, atol=1e-8)


class TestSolveSpd:
    def test_residual_small(self, factored, small_problem_mod, rng):
        a = small_problem_mod.dense()
        x_true = rng.standard_normal(512)
        b = a @ x_true
        x = solve_spd(factored, b)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-6

    def test_solution_accuracy_order_of_paper(self, small_problem_mod, rng):
        """Section VIII-A: eps=1e-8 compression yields ~1e-9 solution error."""
        from repro import TruncationRule

        a = small_problem_mod.dense()
        m = BandTLRMatrix.from_problem(
            small_problem_mod, TruncationRule(eps=1e-8), band_size=1
        )
        tlr_cholesky(m)
        x_true = rng.standard_normal(512)
        x = solve_spd(m, a @ x_true)
        err = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
        assert err < 1e-7


class TestLogDet:
    def test_matches_dense(self, factored, small_problem_mod):
        a = small_problem_mod.dense()
        sign, ref = np.linalg.slogdet(a)
        assert sign > 0
        assert log_det(factored) == pytest.approx(ref, abs=1e-6)

    def test_unfactorized_negative_diag_rejected(self, small_problem_mod, rule8_mod):
        m = BandTLRMatrix.from_problem(small_problem_mod, rule8_mod, band_size=1)
        m.tile(0, 0).data[0, 0] = -1.0
        with pytest.raises(ConfigurationError):
            log_det(m)
