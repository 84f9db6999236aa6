"""Unit tests for the TLRSolver facade."""

import numpy as np
import pytest

from repro import TLRSolver, st_3d_exp_problem
from repro.utils import ConfigurationError


@pytest.fixture(scope="module")
def api_problem():
    return st_3d_exp_problem(512, 64, seed=23)


class TestConstruction:
    def test_auto_band(self, api_problem):
        s = TLRSolver.from_problem(api_problem, accuracy=1e-8)
        assert s.decision is not None
        assert s.band_size == s.decision.band_size

    def test_forced_band(self, api_problem):
        s = TLRSolver.from_problem(api_problem, accuracy=1e-8, band_size=3)
        assert s.band_size == 3
        assert s.decision is None

    def test_rejects_bad_band(self, api_problem):
        with pytest.raises(ConfigurationError):
            TLRSolver.from_problem(api_problem, band_size=2.5)

    @pytest.mark.parametrize("accuracy", [1.0, 2.0])
    def test_rejects_accuracy_of_one_or_more(self, api_problem, accuracy):
        with pytest.raises(ConfigurationError, match=r"\(0, 1\)"):
            TLRSolver.from_problem(api_problem, accuracy=accuracy)

    def test_duplicate_points_without_nugget_rejected(self):
        """Point 5 copied onto point 200 used to factorize the singular
        matrix and return a finite log-determinant."""
        from repro.statistics import CovarianceProblem

        points = st_3d_exp_problem(400, 50, seed=0).points.copy()
        points[200] = points[5]
        with pytest.raises(ConfigurationError, match="points 5 and 200"):
            s = TLRSolver.from_problem(
                CovarianceProblem(points=points, tile_size=50, nugget=0.0),
                accuracy=1e-8,
            )
            s.factorize()
            s.log_det()

    def test_maxrank_cap_applied(self, api_problem):
        s = TLRSolver.from_problem(
            api_problem, accuracy=1e-8, band_size=1, maxrank=8
        )
        _, _, mx = s.matrix.rank_stats()
        assert mx <= 8


@pytest.fixture(scope="module")
def factored(api_problem):
    s = TLRSolver.from_problem(api_problem, accuracy=1e-8, band_size=2)
    s.factorize()
    return s


class TestLifecycle:
    def test_factorize_then_solve(self, api_problem):
        a = api_problem.dense()
        s = TLRSolver.from_problem(api_problem, accuracy=1e-8)
        s.factorize()
        x_true = np.random.default_rng(5).standard_normal(512)
        x = s.solve(a @ x_true)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-6

    def test_double_factorize_rejected(self, api_problem):
        s = TLRSolver.from_problem(api_problem, accuracy=1e-8)
        s.factorize()
        with pytest.raises(ConfigurationError):
            s.factorize()

    def test_non_finite_rhs_rejected(self, api_problem):
        s = TLRSolver.from_problem(api_problem, accuracy=1e-8, band_size=2)
        s.factorize()
        rhs = np.ones(512)
        rhs[-1] = np.inf
        with pytest.raises(ConfigurationError, match="finite"):
            s.solve(rhs)

    @pytest.mark.parametrize(
        "rhs",
        [
            np.ones(512, dtype=complex),
            np.full(512, "1.0"),
            np.ones(512, dtype=object),
            np.ones((512, 2, 1)),
            np.ones(512, dtype=bool),
        ],
        ids=["complex", "str", "object", "3-D", "bool"],
    )
    def test_bad_rhs_rejected(self, factored, rhs):
        with pytest.raises(ConfigurationError, match="rhs"):
            factored.solve(rhs)

    def test_integer_rhs_is_cast_to_float(self, factored):
        rhs = np.arange(512)
        x = factored.solve(rhs)
        assert x.dtype == np.float64
        np.testing.assert_array_equal(x, factored.solve(rhs.astype(float)))

    def test_solve_before_factorize_rejected(self, api_problem):
        s = TLRSolver.from_problem(api_problem, accuracy=1e-8)
        with pytest.raises(ConfigurationError):
            s.solve(np.zeros(512))

    def test_log_likelihood(self, api_problem):
        z = api_problem.sample_measurements(seed=1)
        s = TLRSolver.from_problem(api_problem, accuracy=1e-8)
        s.factorize()
        ll = s.log_likelihood(z)
        assert np.isfinite(ll)

    def test_is_factorized_flag(self, api_problem):
        s = TLRSolver.from_problem(api_problem, accuracy=1e-8)
        assert not s.is_factorized
        s.factorize()
        assert s.is_factorized

    def test_memory_report_available_anytime(self, api_problem):
        s = TLRSolver.from_problem(api_problem, accuracy=1e-8)
        rep = s.memory_report()
        assert rep.dynamic_elements > 0
