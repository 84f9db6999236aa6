"""Tile-based densification (the paper's Section IX future work): every
off-band tile of a deferred assembly takes its format where it is born,
by one rule (``born_dense``: rank ≥ ⌈b/3⌉ stays dense, and a low-rank
tile must pay for its compression) — read from a previous factor's
``dense_map``, which charges the compression, or decided online after
the tile's own compression when there is none."""

import numpy as np
import pytest

from repro import TruncationRule, st_3d_exp_problem
from repro.core import tlr_cholesky
from repro.linalg import (
    AutoBackend, DenseTile, LowRankTile, born_dense, lowrank_dtype,
)
from repro.linalg.tiles import COMPRESS_MS, COMPRESS_ORDER
from repro.matrix import BandTLRMatrix, TileDescriptor
from repro.runtime import TaskKind
from repro.runtime.graph import graph_for_matrix
from repro.utils import ConfigurationError


def spiky(nt, b, spike_d, base=8, spike=None):
    """Band-1 tiles of low base rank and one high-rank sub-diagonal."""
    spike = spike or b // 2
    m = BandTLRMatrix(
        desc=TileDescriptor(nt * b, b), band_size=1, rule=TruncationRule()
    )
    for i in range(nt):
        m.tiles[(i, i)] = DenseTile(np.eye(b))
        for j in range(i):
            k = spike if i - j == spike_d else base
            m.tiles[(i, j)] = LowRankTile(np.ones((b, k)), np.ones((b, k)))
    return m


class TestPlan:
    """The map a factor hands the next assembly."""

    def test_diagonal_always_dense(self):
        mask = spiky(8, 128, 3).dense_map()
        assert all(mask[i, i] for i in range(8))

    def test_captures_far_spike_without_band(self):
        """An isolated high-rank sub-diagonal far from the diagonal is
        marked alone; the low-rank tiles in between stay compressed (at
        NT = 32, early enough for their compression to pay)."""
        mask = spiky(32, 128, spike_d=6).dense_map()
        assert mask[10, 4]
        assert not mask[10, 7]

    def test_low_rank_everywhere_keeps_tlr(self):
        """Wherever a compression pays for itself (the first 16 of 32
        columns here), a low rank keeps the tile low-rank."""
        mask = spiky(32, 256, spike_d=40, base=4).dense_map()
        assert not np.tril(mask, -1)[:, :16].any()

    def test_high_rank_everywhere_densifies(self):
        mask = spiky(8, 64, spike_d=20, base=60).dense_map()
        assert mask[np.tril_indices(8, -1)].all()


@pytest.fixture(scope="module")
def problem():
    return st_3d_exp_problem(1000, 125, seed=9, nugget=1e-3)


class TestApplyAndFactorize:
    # the sampled route: cheap enough that the first columns stay low-rank
    RULE = TruncationRule(eps=1e-4)

    def test_apply_respects_plan(self, problem):
        first = BandTLRMatrix.from_problem(problem, self.RULE, 1, defer=True)
        tlr_cholesky(first)
        mask = first.dense_map()
        assert 0 < np.tril(mask, -1).sum() < 28
        m = BandTLRMatrix.from_problem(problem, self.RULE, 1, defer=mask)
        m.realize()
        for (i, j), tile in m.tiles.items():
            assert isinstance(tile, DenseTile) == bool(mask[i, j]), (i, j)

    def test_a_factor_is_the_next_steps_map_and_hints(self, problem):
        """``defer=`` a factor: its ``dense_map`` decides the formats and
        every tile born low-rank carries its rank there as the hint (the
        birth that map prices); the factor is only read."""
        first = BandTLRMatrix.from_problem(problem, self.RULE, 1, defer=True)
        tlr_cholesky(first)
        tiles = dict(first.tiles)
        mask = first.dense_map()
        m = BandTLRMatrix.from_problem(problem, self.RULE, 1, defer=first)
        assert first.tiles == tiles
        hinted = 0
        for ij, pending in m.tiles.items():
            if ij[0] - ij[1] < 1:
                continue
            assert pending.dense == bool(mask[ij]), ij
            was = tiles[ij]
            want = was.rank if isinstance(was, LowRankTile) else None
            assert pending.hint == want, ij
            hinted += want is not None and not pending.dense
        assert hinted > 0
        tlr_cholesky(m)
        a = problem.dense()
        l = m.to_dense(lower_only=True)
        assert np.linalg.norm(l @ l.T - a) / np.linalg.norm(a) < 1e-3

    def test_factorization_correct_after_densification(self, problem):
        first = BandTLRMatrix.from_problem(problem, self.RULE, 1, defer=True)
        tlr_cholesky(first)
        m = BandTLRMatrix.from_problem(
            problem, self.RULE, 1, defer=first.dense_map()
        )
        tlr_cholesky(m)
        a = problem.dense()
        l = m.to_dense(lower_only=True)
        assert np.linalg.norm(l @ l.T - a) / np.linalg.norm(a) < 1e-3

    def test_geometry_mismatch_rejected(self, problem):
        for other in spiky(4, 125, 1), spiky(4, 125, 1).dense_map():
            with pytest.raises(ConfigurationError, match="defer map"):
                BandTLRMatrix.from_problem(problem, self.RULE, 1, defer=other)


class TestAdaptiveOnline:
    """No map: each tile is compressed once and kept dense by the rule."""

    RULE = TruncationRule(eps=1e-8)

    def test_adaptive_densifies_high_rank_tiles(self, problem):
        m = BandTLRMatrix.from_problem(problem, self.RULE, 1, defer=True)
        rep = tlr_cholesky(m)
        assert rep.tiles_densified_online > 0
        # off-band tiles born dense although band_size is 1
        dense_offdiag = sum(
            1 for (i, j), t in m.tiles.items()
            if i != j and isinstance(t, DenseTile)
        )
        assert dense_offdiag == rep.tiles_densified_online
        for t in m.tiles.values():
            if isinstance(t, LowRankTile):
                assert 3 * t.rank < 125

    def test_adaptive_factor_is_correct(self, problem):
        m = BandTLRMatrix.from_problem(problem, self.RULE, 1, defer=True)
        tlr_cholesky(m)
        a = problem.dense()
        l = m.to_dense(lower_only=True)
        assert np.linalg.norm(l @ l.T - a) / np.linalg.norm(a) < 1e-6


def synthetic(nt, b, rank_of, eps=1e-8, band=2):
    """Band ``band`` of identity tiles, off-band tiles of ``rank_of(i, j)``
    (factors shared per rank: the map reads ranks, not entries)."""
    m = BandTLRMatrix(
        desc=TileDescriptor(nt * b, b), band_size=band,
        rule=TruncationRule(eps=eps),
    )
    eye, factors = np.eye(b), {}
    for i in range(nt):
        for j in range(i + 1):
            if i - j < band:
                m.tiles[(i, j)] = DenseTile(eye)
                continue
            k = rank_of(i, j)
            if k not in factors:
                factors[k] = np.ones((b, k))
            m.tiles[(i, j)] = LowRankTile(factors[k], factors[k])
    return m


def tight_ranks(i, j):
    """Ranks 20-66, the range ε = 1e-8 leaves below b/3 at b = 200."""
    return 20 + (7 * i + 13 * j) % 47


class TestPrice:
    """``born_dense``: the ⌈b/3⌉ threshold at a birth, and a price that
    depends on the tile's position once the compression is charged."""

    @pytest.mark.parametrize(
        "shape", [(1, 1), (7, 3), (50, 100), (100, 37), (100, 100), (200, 200)]
    )
    def test_paid_compression_is_the_threshold(self, shape):
        for rank in range(min(shape) + 1):
            for gemms in (0, 1, 5, 62):
                assert born_dense(rank, shape, gemms=gemms) == (
                    3 * rank >= min(shape)
                ), (rank, gemms)

    def test_tight_eps_at_nt16_prices_the_hinted_sampler(self):
        """NT = 16, b = 200, ε = 1e-8, at the ranks that ε leaves below
        b/3 (20-66 here; 32-66 in the first factor of a 3200-point 3D
        Matérn): the next birth is hinted, so it is priced as the fp64
        sampler, not as an fp64 ``gesdd`` (which would never pay here).
        A tile stays low-rank only where that price pays: never at rank
        60 and up, never in the last five columns, and below rank 40
        wherever it feeds four GEMMs or more."""
        m = synthetic(16, 200, tight_ranks)
        mask, ranks = m.dense_map(), m.rank_grid()
        low = np.tril(np.ones_like(mask), -2) & ~mask
        assert low.any() and not low[ranks >= 60].any()
        assert not low[:, 11:].any()
        for i, j in zip(*np.nonzero(ranks >= 0)):
            if ranks[i, j] < 40 and 16 - j - 2 >= 4:
                assert low[i, j], (i, j)
        assert all(
            born_dense(r, (200, 200), gemms=14, route="svd", dtype=np.float64)
            for r in range(20, 67)
        )

    def test_early_columns_stay_low_rank_at_nt64(self):
        """The same ranks at NT = 64: a tile of an early column feeds
        enough GEMMs to pay for its compression, one of the last five
        columns does not — the rule is a position, not 'tight ε means
        dense'."""
        mask = synthetic(64, 200, tight_ranks).dense_map()
        lower = np.tril(np.ones_like(mask), -2)
        assert not (mask & lower)[:, :20].any()
        assert (mask | ~lower)[:, 59:].all()

    def test_gemms_are_the_fused_graph_readers(self):
        """``dense_map`` prices tile (i, j) with NT - j - 2 GEMMs: the
        GEMM tasks of the fused graph that read it (plus its SYRK)."""
        nt, band = 9, 2
        graph = graph_for_matrix(synthetic(nt, 100, lambda i, j: 5, band=band))
        for i in range(nt):
            for j in range(i - band + 1):
                kinds = [
                    t.kind for t in graph.tasks.values()
                    if any(e.src == (TaskKind.TRSM, i, j) for e in t.deps)
                ]
                assert kinds.count(TaskKind.SYRK) == 1
                assert kinds.count(TaskKind.GEMM) == nt - j - 2

    def test_every_birth_route_is_priced(self):
        """Every (route, dtype) a birth can take, unhinted or hinted by a
        rank below b/3, has a row in the table."""
        for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-10):
            for b in (50, 64, 100, 200, 250, 400):
                rule = TruncationRule(eps=eps)
                for hint in (None, 0, b // 3 - 1):
                    route = AutoBackend().select((b, b), rule, hint)
                    assert (route, lowrank_dtype(eps).name) in COMPRESS_MS
                    assert route in COMPRESS_ORDER
