"""Single precision wherever ε allows (paper §IX), and the storage-only
modeling helpers."""

import numpy as np
import pytest

from repro import TruncationRule, st_3d_exp_problem
from repro.core import tlr_cholesky
from repro.linalg import DenseTile, LowRankTile
from repro.linalg.precision import (
    FP32_EPS_FLOOR,
    demote_matrix,
    lowrank_dtype,
    quantize_tile,
)
from repro.matrix import BandTLRMatrix
from repro.utils import ConfigurationError

from .conftest import pin_route


@pytest.fixture(scope="module")
def problem():
    return st_3d_exp_problem(729, 81, seed=15, nugget=1e-2)


class TestQuantizeTile:
    def test_dense_roundoff_bounded(self):
        rng = np.random.default_rng(0)
        t = DenseTile(rng.standard_normal((20, 20)))
        q = quantize_tile(t, np.float32)
        err = np.abs(q.data - t.data).max() / np.abs(t.data).max()
        assert 0 < err < 1e-6

    def test_lowrank_factors_quantized(self):
        rng = np.random.default_rng(1)
        t = LowRankTile(rng.standard_normal((10, 3)), rng.standard_normal((10, 3)))
        q = quantize_tile(t, np.float32)
        assert q.rank == 3
        assert not np.array_equal(q.u, t.u)
        assert q.u.dtype == np.float64  # payload returned in working precision

    def test_float16_coarser_than_float32(self):
        rng = np.random.default_rng(2)
        t = DenseTile(rng.standard_normal((30, 30)))
        e32 = np.abs(quantize_tile(t, np.float32).data - t.data).max()
        e16 = np.abs(quantize_tile(t, np.float16).data - t.data).max()
        assert e16 > e32

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ConfigurationError):
            quantize_tile(DenseTile(np.eye(2)), np.int32)


class TestDemoteMatrix:
    def test_memory_halves_for_offband(self, problem):
        m = BandTLRMatrix.from_problem(problem, TruncationRule(eps=1e-6), 1)
        _, rep = demote_matrix(m, dtype=np.float32)
        assert rep.demoted_tiles > 0
        assert 1.0 < rep.saving_factor <= 2.0

    def test_near_band_preserved_exactly(self, problem):
        m = BandTLRMatrix.from_problem(problem, TruncationRule(eps=1e-6), 1)
        demoted, _ = demote_matrix(m, dtype=np.float32, min_distance=3)
        t_orig = m.tile(2, 0)
        t_new = demoted.tile(2, 0)
        np.testing.assert_array_equal(t_new.to_dense(), t_orig.to_dense())

    def test_demotion_error_at_fp32_level(self, problem):
        a = problem.dense()
        m = BandTLRMatrix.from_problem(problem, TruncationRule(eps=1e-12), 1)
        demoted, _ = demote_matrix(m, dtype=np.float32)
        err = np.linalg.norm(demoted.to_dense() - a) / np.linalg.norm(a)
        assert err < 1e-5  # fp32 storage noise, not catastrophic

    def test_factorization_after_demotion(self, problem):
        """ε=1e-6 compression + fp32 storage factorizes to ~ε accuracy."""
        a = problem.dense()
        m = BandTLRMatrix.from_problem(problem, TruncationRule(eps=1e-6), 1)
        demoted, rep = demote_matrix(m, dtype=np.float32)
        tlr_cholesky(demoted)
        l = demoted.to_dense(lower_only=True)
        err = np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)
        assert err < 1e-4
        assert rep.saving_factor > 1.2

    def test_original_untouched(self, problem):
        m = BandTLRMatrix.from_problem(problem, TruncationRule(eps=1e-6), 1)
        before = m.to_dense()
        demote_matrix(m, dtype=np.float16)
        np.testing.assert_array_equal(m.to_dense(), before)

    def test_rejects_bad_distance(self, problem):
        m = BandTLRMatrix.from_problem(problem, TruncationRule(eps=1e-6), 1)
        with pytest.raises(ConfigurationError):
            demote_matrix(m, min_distance=0)


class TestAdaptiveComputePath:
    """Single precision wherever ε allows: off-band low-rank tiles are
    float32 iff ε >= ``FP32_EPS_FLOOR``, dense tiles always float64."""

    @staticmethod
    def _factorize(problem, eps, **kw):
        m = BandTLRMatrix.from_problem(problem, TruncationRule(eps=eps), 2)
        report = tlr_cholesky(m, **kw)
        return m, report

    def test_the_rule_resolves_by_eps(self):
        assert FP32_EPS_FLOOR == 1e-7
        assert lowrank_dtype(1e-7) == np.float32
        assert lowrank_dtype(1e-4) == np.float32
        assert lowrank_dtype(np.nextafter(1e-7, 0)) == np.float64
        assert lowrank_dtype(1e-10) == np.float64

    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_adaptive_accuracy_within_10x_of_fp64(self, problem, eps):
        """The fp32 factor against the same matrix factorized in fp64
        (its low-rank tiles cast up first: the kernels keep each tile's
        dtype) and against the dense oracle."""
        a = problem.dense()

        def backward(m):
            l = m.to_dense(lower_only=True)
            return np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)

        base = BandTLRMatrix.from_problem(problem, TruncationRule(eps=eps), 2)
        m64 = base.copy()
        for ij, tile in m64.tiles.items():
            if isinstance(tile, LowRankTile):
                m64.tiles[ij] = tile.astype(np.float64)
        tlr_cholesky(m64)
        mad = base.copy()
        rep = tlr_cholesky(mad)
        err64, errad = backward(m64), backward(mad)
        assert errad <= 10 * eps
        assert errad < 10 * max(err64, eps)
        pr = rep.precision_report
        assert pr.demoted_tiles == pr.lowrank_tiles > 0

    def test_adaptive_halves_offband_bytes(self, problem):
        _, rep = self._factorize(problem, 1e-4)
        pr = rep.precision_report
        assert pr.demoted_tiles > 0
        assert pr.offband_saving_factor == pytest.approx(2.0, rel=0.05)

    def test_tight_eps_falls_back_to_fp64(self, problem):
        """Below the fp32 ε floor nothing is demoted."""
        m, rep = self._factorize(problem, 1e-10)
        pr = rep.precision_report
        assert pr.demoted_tiles == 0 < pr.lowrank_tiles
        assert pr.offband_saving_factor == pytest.approx(1.0)
        for tile in m.tiles.values():
            if isinstance(tile, LowRankTile):
                assert tile.dtype == np.float64

    def test_adaptive_with_threads(self, problem):
        a = problem.dense()
        m, _ = self._factorize(problem, 1e-4, n_workers=2)
        l = m.to_dense(lower_only=True)
        err = np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)
        assert err < 1e-3

    @pytest.mark.parametrize(
        "eps, route", [(1e-4, "svd"), (1e-8, "auto")], ids=["fp32", "fp64"]
    )
    def test_backward_error_within_10_eps(
        self, problem, monkeypatch, eps, route
    ):
        """The cases the ε-sweep above leaves out: fp32 tiles rounded by
        the exact route, and fp64 below the floor.  Either way the
        factor stays within 10·ε of the dense matrix."""
        pin_route(monkeypatch, route)
        a = problem.dense()
        m = BandTLRMatrix.from_problem(problem, TruncationRule(eps=eps), 2)
        tlr_cholesky(m)
        l = m.to_dense(lower_only=True)
        assert np.linalg.norm(l @ l.T - a) / np.linalg.norm(a) <= 10 * eps

    @pytest.mark.parametrize("defer", ["eager", "rule", "map"])
    @pytest.mark.parametrize("eps", [1e-4, 1e-8])
    def test_every_path_stores_by_the_rule(self, problem, defer, eps):
        """Eager, ``defer=True`` and ``defer=`` a map: low-rank tiles take
        the rule's dtype (fp32 at 1e-4, fp64 at 1e-8), dense ones —
        band or born dense — float64, before and after the factorization."""
        rule = TruncationRule(eps=eps)
        nt = problem.ntiles
        mask = np.tril(np.ones((nt, nt), dtype=bool), -2)
        mask[::2] = False  # the odd block rows born dense
        how = {"eager": False, "rule": True, "map": mask}[defer]
        m = BandTLRMatrix.from_problem(problem, rule, 2, defer=how)
        want = np.float32 if eps >= 1e-7 else np.float64
        assert {  # low-rank and pending off-band tiles alike
            t.dtype for (i, j), t in m.tiles.items()
            if not isinstance(t, DenseTile) and i - j >= 2
        } <= {np.dtype(want)}
        report = tlr_cholesky(m)
        lowrank = [t for t in m.tiles.values() if isinstance(t, LowRankTile)]
        dense = [t for t in m.tiles.values() if isinstance(t, DenseTile)]
        assert len(dense) >= 2 * nt - 1
        assert lowrank or (eps < 1e-7 and defer == "rule")  # all high-rank
        assert {t.dtype for t in lowrank} <= {np.dtype(want)}
        assert {t.data.dtype for t in dense} == {np.dtype(np.float64)}
        pr = report.precision_report
        assert pr.lowrank_tiles == len(lowrank)
        assert pr.demoted_tiles == (len(lowrank) if eps >= 1e-7 else 0)
