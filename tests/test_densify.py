"""Tile-based densification (the paper's Section IX future work): every
off-band tile of a deferred assembly takes its format where it is born,
by one rule (``keep_dense``: rank ≥ ⌈b/3⌉ stays dense) — read from a
previous factor's ``dense_map``, or decided online after the tile's own
compression when there is none."""

import numpy as np
import pytest

from repro import TruncationRule, st_3d_exp_problem
from repro.core import tlr_cholesky
from repro.linalg import DenseTile, LowRankTile
from repro.matrix import BandTLRMatrix, TileDescriptor
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
        marked alone; the low-rank tiles in between stay compressed."""
        mask = spiky(12, 128, spike_d=6).dense_map()
        assert mask[10, 4]
        assert not mask[10, 7]

    def test_low_rank_everywhere_keeps_tlr(self):
        mask = spiky(10, 256, spike_d=20, base=4).dense_map()
        assert not np.tril(mask, -1).any()

    def test_high_rank_everywhere_densifies(self):
        mask = spiky(8, 64, spike_d=20, base=60).dense_map()
        assert mask[np.tril_indices(8, -1)].all()


@pytest.fixture(scope="module")
def problem():
    return st_3d_exp_problem(1000, 125, seed=9, nugget=1e-3)


class TestApplyAndFactorize:
    RULE = TruncationRule(eps=1e-5)

    def test_apply_respects_plan(self, problem):
        first = BandTLRMatrix.from_problem(problem, self.RULE, 1, defer=True)
        tlr_cholesky(first)
        mask = first.dense_map()
        assert 0 < np.tril(mask, -1).sum() < 28
        m = BandTLRMatrix.from_problem(problem, self.RULE, 1, defer=mask)
        m.realize()
        for (i, j), tile in m.tiles.items():
            assert isinstance(tile, DenseTile) == bool(mask[i, j]), (i, j)

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
        with pytest.raises(ConfigurationError, match="defer map"):
            BandTLRMatrix.from_problem(
                problem, self.RULE, 1, defer=spiky(4, 125, 1).dense_map()
            )


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
