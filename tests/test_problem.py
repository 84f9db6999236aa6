"""Unit tests for CovarianceProblem (the STARS-H substitute)."""

import numpy as np
import pytest

from repro.statistics import CovarianceProblem, st_3d_exp_problem
from repro.utils import ConfigurationError, ProblemError


class TestGeometry:
    def test_ntiles_ceil(self, small_problem):
        assert small_problem.ntiles == 8  # 512 / 64

    def test_uneven_tiling(self):
        prob = st_3d_exp_problem(500, 64, seed=0)
        assert prob.ntiles == 8
        assert prob.tile_shape(7, 7) == (52, 52)
        assert prob.tile_shape(7, 0) == (52, 64)

    def test_tile_rows(self, small_problem):
        s = small_problem.tile_rows(2)
        assert (s.start, s.stop) == (128, 192)

    def test_tile_rows_out_of_range(self, small_problem):
        with pytest.raises(ProblemError):
            small_problem.tile_rows(8)

    def test_rejects_tile_larger_than_n(self):
        with pytest.raises(ConfigurationError):
            st_3d_exp_problem(100, 128)

    @pytest.mark.parametrize("nugget", [-1e-3, np.nan, np.inf, -np.inf])
    def test_rejects_bad_nugget(self, small_problem, nugget):
        """A NaN nugget would pass ``nugget < 0`` and be added as 0."""
        with pytest.raises(ConfigurationError, match="nugget"):
            CovarianceProblem(
                points=small_problem.points, tile_size=64, nugget=nugget
            )

    @pytest.mark.parametrize("src, dst", [(5, 200), (0, 399), (0, 1)])
    def test_rejects_duplicate_points_without_nugget(self, src, dst):
        """Coincident points make the exact covariance singular; without a
        nugget that is refused and the pair named, whichever tiles hold it."""
        points = st_3d_exp_problem(400, 50, seed=0).points.copy()
        points[dst] = points[src]
        with pytest.raises(ConfigurationError, match=f"points {src} and {dst}"):
            CovarianceProblem(points=points, tile_size=50, nugget=0.0)
        CovarianceProblem(points=points, tile_size=50, nugget=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_point(self, small_problem, bad):
        """Refused before any tile is generated, not deep in the compressor."""
        points = small_problem.points.copy()
        points[5, 1] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            CovarianceProblem(points=points, tile_size=64)


class TestAssembly:
    def test_tiles_assemble_to_dense(self, small_problem, small_dense):
        nt, b = small_problem.ntiles, small_problem.tile_size
        for i, j in [(0, 0), (3, 1), (7, 7), (5, 0)]:
            block = small_problem.tile(i, j)
            ref = small_dense[i * b : (i + 1) * b, j * b : (j + 1) * b]
            np.testing.assert_allclose(block, ref, atol=1e-14)

    def test_diagonal_tile_has_nugget(self):
        prob = st_3d_exp_problem(128, 64, seed=0, nugget=0.5)
        t = prob.tile(0, 0)
        # Distinct points: kernel diagonal is exactly 1, so diag = 1.5.
        np.testing.assert_allclose(np.diag(t), 1.5)

    def test_off_diagonal_tile_no_nugget(self):
        prob = st_3d_exp_problem(128, 64, seed=0, nugget=0.5)
        t01 = prob.tile(0, 1)
        assert t01.max() < 1.0

    def test_symmetry_via_transpose(self, small_problem):
        np.testing.assert_allclose(
            small_problem.tile(2, 5), small_problem.tile(5, 2).T, atol=1e-14
        )

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 0.7])
    def test_tile_into_a_buffer_is_the_formula_as_written(self, nu):
        """Generated in place, into a recycled buffer or a new one, a tile
        is bitwise the out-of-place formulas: ``x2 + y2 - 2 x.y``, then
        Eq. 2's closed form (ν = 0.7: the Bessel branch)."""
        from repro.statistics import MaternParams, matern

        base = st_3d_exp_problem(350, 100, seed=4)  # ragged last tile
        params = MaternParams(1.3, 0.12, nu)
        prob = CovarianceProblem(
            points=base.points, params=params, tile_size=100, nugget=1e-3
        )
        for i, j in [(2, 1), (3, 0), (3, 3), (1, 1)]:
            x, y = prob.points[prob.tile_rows(i)], prob.points[prob.tile_rows(j)]
            x2, y2 = np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", y, y)
            d = x2[:, None] + y2[None, :] - 2.0 * (x @ y.T)
            d = np.sqrt(np.maximum(d, 0.0))
            if i == j:
                np.fill_diagonal(d, 0.0)
            s = d / params.correlation_length
            want = {
                0.5: lambda: params.variance * np.exp(-s),
                1.5: lambda: params.variance * (1.0 + s) * np.exp(-s),
                2.5: lambda: (
                    params.variance * (1.0 + s + s * s / 3.0) * np.exp(-s)
                ),
                0.7: lambda: matern(d, params),
            }[nu]()
            if i == j:
                want[np.diag_indices_from(want)] += prob.nugget
            buffer = np.full(prob.tile_shape(i, j), np.nan)
            assert prob.tile(i, j, out=buffer) is buffer
            assert buffer.tobytes() == want.tobytes()
            assert prob.tile(i, j).tobytes() == want.tobytes()

    def test_dense_is_spd(self, small_dense):
        assert np.linalg.eigvalsh(small_dense).min() > 0

    def test_dense_guard(self):
        prob = st_3d_exp_problem(1000, 100, seed=0)
        prob.points = np.zeros((30_000, 3))  # fake a huge problem
        with pytest.raises(ProblemError, match="refusing"):
            prob.dense()


class TestSampling:
    def test_sample_shape(self, small_problem):
        z = small_problem.sample_measurements(seed=1)
        assert z.shape == (512,)

    def test_multi_sample_shape(self, small_problem):
        z = small_problem.sample_measurements(seed=1, n_samples=3)
        assert z.shape == (512, 3)

    def test_sample_covariance_statistics(self):
        """Empirical variance of z entries should be near theta1 + nugget."""
        prob = st_3d_exp_problem(256, 64, seed=0, nugget=1e-6)
        z = prob.sample_measurements(seed=5, n_samples=200)
        emp_var = z.var()
        assert 0.7 < emp_var < 1.3

    def test_deterministic(self, small_problem):
        np.testing.assert_array_equal(
            small_problem.sample_measurements(seed=3),
            small_problem.sample_measurements(seed=3),
        )


class TestSt3dExpFactory:
    def test_points_in_unit_cube(self, small_problem):
        assert small_problem.points.min() >= 0.0
        assert small_problem.points.max() <= 1.0

    def test_points_are_3d(self, small_problem):
        assert small_problem.ndim == 3

    def test_morton_ordered(self, small_problem):
        d = np.linalg.norm(np.diff(small_problem.points, axis=0), axis=1)
        # Morton-ordered consecutive points are close on average.
        assert d.mean() < 0.25
