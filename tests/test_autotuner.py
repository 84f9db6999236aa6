"""Unit tests for the BAND_SIZE auto-tuner (Algorithm 1)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TLRSolver, TruncationRule, obs, st_3d_exp_problem
from repro.analysis import RankModel
from repro.matrix import BandTLRMatrix
from repro.core import (
    autotune_matrix,
    subdiagonal_costs,
    subdiagonal_maxranks,
    tune_band_size,
)
from repro.linalg.tiles import LowRankTile
from repro.statistics.problem import CovarianceProblem
from repro.utils import ConfigurationError

from .conftest import pin_route


def grid_from_model(model, nt):
    return model.to_rank_grid(nt)


class TestSubdiagonalMaxranks:
    def test_reads_max_per_subdiagonal(self):
        g = np.full((4, 4), -1, dtype=np.int64)
        g[1, 0], g[2, 1], g[3, 2] = 5, 9, 3
        g[2, 0], g[3, 1] = 7, 2
        g[3, 0] = 1
        assert subdiagonal_maxranks(g) == [9, 7, 1]

    def test_all_dense_subdiagonal_is_minus_one(self):
        g = np.full((4, 4), -1, dtype=np.int64)
        g[3, 0] = 6
        assert subdiagonal_maxranks(g) == [-1, -1, 6]


class TestSubdiagonalCosts:
    def test_counts(self):
        model = RankModel(tile_size=128, k1=40, alpha=1.0)
        costs = subdiagonal_costs(
            subdiagonal_maxranks(grid_from_model(model, 10)), 10, 128
        )
        assert len(costs) == 9
        assert costs[0].band_id == 2
        assert costs[0].ntile == 9
        # GEMM count for sub-diagonal d: (nt-d)(nt-d-1)/2.
        assert costs[0].dense_flops == pytest.approx(
            36 * 2 * 128**3 + 9 * 128**3
        )

    def test_tlr_cheaper_far_from_diagonal(self):
        model = RankModel(tile_size=256, k1=120, alpha=1.2, kmin=4)
        costs = subdiagonal_costs(
            subdiagonal_maxranks(grid_from_model(model, 20)), 20, 256
        )
        assert costs[-1].tlr_flops < costs[-1].dense_flops

    def test_dense_subdiagonals_never_drive_decision(self):
        g = np.full((6, 6), -1, dtype=np.int64)  # fully dense already
        costs = subdiagonal_costs(subdiagonal_maxranks(g), 6, 64)
        for c in costs:
            assert c.dense_flops == c.tlr_flops


class TestTuneBandSize:
    def test_high_ranks_widen_band(self):
        # Ranks close to b make TLR GEMM more expensive than dense.
        high = RankModel(tile_size=128, k1=120, alpha=0.3, kmin=8)
        low = RankModel(tile_size=128, k1=8, alpha=1.0, kmin=2)
        d_high = tune_band_size(grid_from_model(high, 16), 128)
        d_low = tune_band_size(grid_from_model(low, 16), 128)
        assert d_high.band_size > d_low.band_size
        assert d_low.band_size == 1

    def test_fluctuation_monotone(self):
        model = RankModel(tile_size=128, k1=90, alpha=0.8, kmin=4)
        g = grid_from_model(model, 16)
        b_lo = tune_band_size(g, 128, fluctuation=0.67).band_size
        b_hi = tune_band_size(g, 128, fluctuation=1.0).band_size
        assert b_lo <= b_hi

    def test_band_size_range_brackets_choice(self):
        model = RankModel(tile_size=128, k1=90, alpha=0.8, kmin=4)
        d = tune_band_size(grid_from_model(model, 16), 128, fluctuation=0.8)
        lo, hi = d.band_size_range
        assert lo <= d.band_size <= hi

    def test_max_band_caps(self):
        model = RankModel(tile_size=64, k1=64, alpha=0.05, kmin=32)
        d = tune_band_size(grid_from_model(model, 12), 64, max_band=3)
        assert d.band_size <= 3

    def test_rejects_bad_fluctuation(self):
        with pytest.raises(ConfigurationError):
            tune_band_size(np.full((4, 4), -1), 64, fluctuation=0.0)

    def test_costs_exposed_for_fig6c(self):
        model = RankModel(tile_size=128, k1=60, alpha=0.9, kmin=4)
        d = tune_band_size(grid_from_model(model, 12), 128)
        assert len(d.costs) == 11
        assert all(c.maxrank >= 0 for c in d.costs)


    def test_already_dense_subdiagonals_stay_in_the_band(self, small_problem):
        """A grid whose inner sub-diagonals are dense (−1) used to stop
        the tuner at band 1 (``dense <= 0.67 * dense`` is false)."""
        m1 = BandTLRMatrix.from_problem(
            small_problem, TruncationRule(eps=1e-2), band_size=1
        )
        tuned = tune_band_size(m1.rank_grid(), 64)
        assert tuned.band_size == 3
        for k in range(1, tuned.band_size + 1):
            grid = m1.with_band_size(k, small_problem).rank_grid()
            again = tune_band_size(grid, 64)
            assert again.band_size == tuned.band_size
            assert again.band_size_range == tuned.band_size_range

    @pytest.mark.parametrize("bad", [0, -3, True, 2.0])
    def test_rejects_bad_max_band(self, bad):
        with pytest.raises(ConfigurationError):
            tune_band_size(np.full((4, 4), -1), 64, max_band=bad)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_walk_equals_full_max_decision(self, data):
        """Deciding on the running max rank, tile by tile, is deciding
        on the sub-diagonal's max rank (both costs are monotone in k)."""
        nt = data.draw(st.integers(1, 9))
        b = data.draw(st.sampled_from([32, 64, 200]))
        dense_band = data.draw(st.integers(1, nt))
        grid = np.full((nt, nt), -1, dtype=np.int64)
        for i in range(nt):
            for j in range(i):
                if i - j >= dense_band:
                    grid[i, j] = data.draw(st.integers(0, b))
        f = data.draw(st.floats(0.01, 1.0))
        cap = data.draw(st.none() | st.integers(1, nt + 2))

        maxranks = subdiagonal_maxranks(grid)
        costs = subdiagonal_costs(maxranks, nt, b)

        def reference(f):
            band = 1
            for c, k in zip(costs, maxranks):
                if cap is not None and c.band_id > cap:
                    break
                if k >= 0 and c.dense_flops > f * c.tlr_flops:
                    break
                band = c.band_id
            return band

        d = tune_band_size(grid, b, fluctuation=f, max_band=cap)
        assert d.band_size == reference(f)
        assert d.band_size_range == (reference(0.67), reference(1.0))
        assert d.costs == tuple(costs)


class TestAutotuneMatrix:
    def test_pipeline_on_real_problem(self, medium_problem, medium_dense, rule8):
        m_tuned, decision = autotune_matrix(medium_problem, rule8)
        assert m_tuned.band_size == decision.band_size
        # The tuned matrix still represents the same operator.
        assert m_tuned.compression_error(medium_dense) < 1e-6

    def test_band_matches_rank_grid_decision(self, medium_problem, rule8):
        m1 = BandTLRMatrix.from_problem(medium_problem, rule8, band_size=1)
        decision = tune_band_size(m1.rank_grid(), m1.desc.tile_size)
        m_tuned, tuned = autotune_matrix(medium_problem, rule8)
        assert m_tuned.band_size == tuned.band_size == decision.band_size

    def test_rejects_bad_max_band(self, small_problem, rule8):
        with pytest.raises(ConfigurationError):
            autotune_matrix(small_problem, rule8, max_band=-3)

    def test_span_reports_what_tuning_cost(self, small_problem):
        with obs.observe() as ob:
            m, _ = autotune_matrix(small_problem, TruncationRule(eps=1e-2))
        (span,) = [s for s in ob.tracer.spans if s.name == "autotune_band"]
        assert span.attrs["band_size"] == m.band_size == 3
        lowrank = sum(isinstance(t, LowRankTile) for t in m.tiles.values())
        kept = span.attrs["tiles_probed"] - span.attrs["tiles_discarded"]
        assert 0 < span.attrs["tiles_discarded"] < span.attrs["tiles_probed"]
        assert 0 < kept <= lowrank


class TestIntegerLikeBands:
    def test_numpy_integer_band_is_a_band(self, small_problem):
        solver = TLRSolver.from_problem(small_problem, band_size=np.int64(2))
        assert solver.band_size == 2 and type(solver.band_size) is int

    @pytest.mark.parametrize("bad", [True, 2.0, "wide", 0, None])
    def test_rejects_non_bands(self, small_problem, bad):
        with pytest.raises(ConfigurationError):
            TLRSolver.from_problem(small_problem, band_size=bad)

    def test_one_cache_identity(self):
        from repro.service import FactorCache, FactorRecipe

        problem = st_3d_exp_problem(256, 64, seed=3)
        cache = FactorCache()
        built = cache.get_or_build(
            FactorRecipe(problem=problem, accuracy=1e-6, band_size=2)
        )
        again = cache.get_or_build(
            FactorRecipe(problem=problem, accuracy=1e-6, band_size=np.int64(2))
        )
        assert again is built
        assert cache.stats().factorizations == 1 and cache.stats().hits == 1
        assert built.key.digest() == again.key.digest()
        assert type(built.key.band_size) is int


# ---------------------------------------------------------------------------
# The outward probe is Algorithm 1, not an approximation of it
# ---------------------------------------------------------------------------
#: name -> (n, tile, eps, max_band).  ``base`` tunes to band 3 with a
#: (3, 7) window, so the walk goes on past the band it picks.
GEOMETRIES = {
    "base": (1000, 125, 1e-4, None),
    "one_tile": (100, 100, 1e-4, None),
    "ragged_last_tile": (1040, 125, 1e-4, None),
    "tight_eps_band_to_nt": (1000, 125, 1e-8, None),
    "loose_eps_band_one": (1000, 125, 0.5, None),  # ε < 1; rank-0 tiles
    "max_band_below_tuned": (1000, 125, 1e-4, 2),
}


@functools.lru_cache(maxsize=None)
def _problem(n, tile):
    return st_3d_exp_problem(n, tile, seed=3)


@functools.lru_cache(maxsize=None)
def _band_one(n, tile, eps, route):
    """Step 1 of the paper's pipeline, shared by every case that reads it
    (built on the compressor ``route`` the caller pinned)."""
    return BandTLRMatrix.from_problem(
        _problem(n, tile), TruncationRule(eps=eps), band_size=1
    )


def _assert_bitwise_equal(got, want):
    assert got.band_size == want.band_size
    assert got.tiles.keys() == want.tiles.keys()
    for ij, tile in want.tiles.items():
        other = got.tiles[ij]
        assert type(other) is type(tile), ij
        if isinstance(tile, LowRankTile):
            assert other.dtype == tile.dtype, ij
            assert np.array_equal(other.u, tile.u), ij
            assert np.array_equal(other.v, tile.v), ij
        else:
            assert np.array_equal(other.data, tile.data), ij


class TestOutwardProbe:
    def _check(self, geometry, route, n_workers, fluctuation, eps=None):
        n, tile, geometry_eps, max_band = GEOMETRIES[geometry]
        eps = eps or geometry_eps
        problem = _problem(n, tile)
        m1 = _band_one(n, tile, eps, route)
        want = tune_band_size(
            m1.rank_grid(), tile, fluctuation=fluctuation, max_band=max_band
        )
        reference = m1.with_band_size(want.band_size, problem)

        got, decision = autotune_matrix(
            problem, TruncationRule(eps=eps), fluctuation=fluctuation,
            max_band=max_band, n_workers=n_workers,
        )
        assert decision.band_size == want.band_size
        assert decision.band_size_range == want.band_size_range
        _assert_bitwise_equal(got, reference)
        # Outside the band the cost table is the band-1 one.
        assert decision.costs[want.band_size - 1:] == want.costs[want.band_size - 1:]
        return got, decision

    @pytest.mark.parametrize("fluctuation", [0.5, 0.67, 1.0])
    @pytest.mark.parametrize("n_workers", [None, 2])
    @pytest.mark.parametrize("precision", [None, "adaptive"])
    @pytest.mark.parametrize("route", ["svd", "rsvd", "auto"])
    def test_same_matrix_as_the_three_step_pipeline(
        self, monkeypatch, route, precision, n_workers, fluctuation
    ):
        pin_route(monkeypatch, route)
        # an ε at which the rule picks that precision for off-band tiles
        eps = 1e-4 if precision else 1e-8
        got, _ = self._check("base", route, n_workers, fluctuation, eps)
        want = np.float32 if precision == "adaptive" else np.float64
        assert {
            t.dtype for t in got.tiles.values() if isinstance(t, LowRankTile)
        } <= {np.dtype(want)}

    @pytest.mark.parametrize("fluctuation", [0.5, 0.67, 1.0])
    @pytest.mark.parametrize("geometry", sorted(set(GEOMETRIES) - {"base"}))
    def test_geometries(self, geometry, fluctuation):
        _, decision = self._check(geometry, "auto", None, fluctuation)
        if geometry == "one_tile":
            assert decision.band_size == 1 and decision.costs == ()
        if geometry == "loose_eps_band_one":
            assert decision.band_size == 1
        if geometry == "tight_eps_band_to_nt":
            assert decision.band_size == 7
        if geometry == "max_band_below_tuned":
            assert decision.band_size == 2

    @pytest.mark.parametrize("geometry", ["base", "tight_eps_band_to_nt"])
    def test_never_more_work_than_band_one(self, geometry, monkeypatch):
        n, tile, eps, _ = GEOMETRIES[geometry]
        problem = _problem(n, tile)
        generated, compressed = [], []
        tile_fn, compress_fn = CovarianceProblem.tile, BandTLRMatrix._compress

        def tile_spy(self, i, j):
            generated.append((i, j))
            return tile_fn(self, i, j)

        def compress_spy(self, block, rank_hint=None):
            # serial: a tile is compressed right after it is generated
            compressed.append(generated[-1])
            return compress_fn(self, block, rank_hint)

        monkeypatch.setattr(CovarianceProblem, "tile", tile_spy)
        monkeypatch.setattr(BandTLRMatrix, "_compress", compress_spy)
        m, decision = autotune_matrix(problem, TruncationRule(eps=eps))

        nt = m.ntiles
        assert len(compressed) == len(set(compressed)) <= nt * (nt - 1) // 2
        assert max(generated.count(ij) for ij in set(generated)) <= 2
        discarded = [ij for ij in compressed if ij[0] - ij[1] < m.band_size]
        # A tile is generated twice only when its compression was thrown away.
        assert len(generated) == nt * (nt + 1) // 2 + len(discarded)
        in_band = sum(nt - d for d in range(1, m.band_size))
        assert len(discarded) < in_band
