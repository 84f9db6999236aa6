"""Unit tests for the MLE pipeline (Eq. 1)."""

import numpy as np
import pytest

from repro import TruncationRule, st_3d_exp_problem
from repro.matrix import BandTLRMatrix
from repro.core import (
    LikelihoodEvaluator,
    fit_mle,
    log_likelihood,
    tlr_cholesky,
)
from repro.linalg import AutoBackend
from repro.utils import ConfigurationError


@pytest.fixture(scope="module")
def mle_problem():
    return st_3d_exp_problem(343, 49, seed=17)


@pytest.fixture(scope="module")
def mle_z(mle_problem):
    return mle_problem.sample_measurements(seed=99)


class TestLogLikelihood:
    def test_matches_dense_formula(self, mle_problem, mle_z):
        a = mle_problem.dense()
        m = BandTLRMatrix.from_problem(mle_problem, TruncationRule(eps=1e-10), 1)
        tlr_cholesky(m)
        ll = log_likelihood(m, mle_z)
        n = mle_problem.n
        sign, logdet = np.linalg.slogdet(a)
        quad = mle_z @ np.linalg.solve(a, mle_z)
        ref = -0.5 * (n * np.log(2 * np.pi) + logdet + quad)
        assert ll == pytest.approx(ref, abs=1e-4)

    def test_rejects_bad_shape(self, mle_problem):
        m = BandTLRMatrix.from_problem(mle_problem, TruncationRule(eps=1e-8), 1)
        tlr_cholesky(m)
        with pytest.raises(ConfigurationError):
            log_likelihood(m, np.zeros(10))


class TestLikelihoodEvaluator:
    def test_true_parameters_beat_wrong_ones(self, mle_problem, mle_z):
        ev = LikelihoodEvaluator(
            points=mle_problem.points,
            z=mle_z,
            tile_size=49,
            rule=TruncationRule(eps=1e-8),
        )
        ll_true = ev(1.0, 0.1)
        ll_wrong_len = ev(1.0, 0.5)
        ll_wrong_var = ev(10.0, 0.1)
        assert ll_true > ll_wrong_len
        assert ll_true > ll_wrong_var

    def test_invalid_parameters_give_minus_inf(self, mle_problem, mle_z):
        ev = LikelihoodEvaluator(
            points=mle_problem.points, z=mle_z, tile_size=49
        )
        assert ev(-1.0, 0.1) == float("-inf")

    def test_deferred_step_against_the_dense_oracle(self, monkeypatch):
        """b = 200, ε = 1e-4, band 2 — the size the default backend
        samples: each of the 10 off-band tiles is compressed once (those
        of columns >= 1 after their update, so never rounded again with
        a hint), and Eq. (1) holds to the accuracy threshold."""
        hints = []
        compress = AutoBackend.compress

        def counting(self, a, rule, **kwargs):
            hints.append(kwargs.get("rank_hint"))
            return compress(self, a, rule, **kwargs)

        monkeypatch.setattr(AutoBackend, "compress", counting)
        problem = st_3d_exp_problem(1200, 200, seed=5)
        z = problem.sample_measurements(seed=6)
        ev = LikelihoodEvaluator(
            points=problem.points, z=z, tile_size=200,
            rule=TruncationRule(eps=1e-4), band_size=2,
            nugget=problem.nugget,
        )
        ll = ev(problem.params.variance, problem.params.correlation_length)
        a = problem.dense()
        _, logdet = np.linalg.slogdet(a)
        ref = -0.5 * (
            problem.n * np.log(2 * np.pi) + logdet + z @ np.linalg.solve(a, z)
        )
        assert abs(ll - ref) <= 1e-4 * abs(ref)
        assert hints == [None] * 10

    @pytest.mark.parametrize(
        "spoil,match",
        [
            (lambda p, z: (p, np.where(np.arange(z.size) == 3, np.nan, z)),
             "finite"),
            (lambda p, z: (p, z[:-1]), "length-343"),
            (lambda p, z: (np.where(p == p[0, 0], np.nan, p), z), "finite"),
            (lambda p, z: (p[:, 0], z), "2-D"),
        ],
        ids=["nan-in-z", "short-z", "nan-point", "flat-points"],
    )
    def test_bad_inputs_are_refused_at_construction(
        self, mle_problem, mle_z, spoil, match
    ):
        points, z = spoil(mle_problem.points, mle_z)
        with pytest.raises(ConfigurationError, match=match):
            LikelihoodEvaluator(points=points, z=z, tile_size=49)

    def test_evaluations_logged(self, mle_problem, mle_z):
        ev = LikelihoodEvaluator(
            points=mle_problem.points, z=mle_z, tile_size=49
        )
        ev(1.0, 0.1)
        assert len(ev.evaluations) == 1


class TestFitMle:
    @pytest.mark.slow
    def test_recovers_parameters_roughly(self, mle_problem, mle_z):
        """With n=343 the MLE should land in the right neighbourhood of
        (theta1, theta2) = (1, 0.1)."""
        ev = LikelihoodEvaluator(
            points=mle_problem.points,
            z=mle_z,
            tile_size=49,
            rule=TruncationRule(eps=1e-6),
        )
        res = fit_mle(ev, initial=(0.5, 0.05), max_iterations=60)
        assert 0.3 < res.variance < 3.0
        assert 0.03 < res.correlation_length < 0.4
        assert res.n_evaluations > 5

    def test_rejects_bad_initial(self, mle_problem, mle_z):
        ev = LikelihoodEvaluator(points=mle_problem.points, z=mle_z, tile_size=49)
        with pytest.raises(ConfigurationError):
            fit_mle(ev, initial=(0.0, 0.1))
