"""Unit tests for tile data structures."""

import numpy as np
import pytest

from repro.linalg import DenseTile, LowRankTile, PendingTile, TileFormat
from repro.utils import KernelError


class TestDenseTile:
    def test_shape_and_format(self):
        t = DenseTile(np.zeros((4, 6)))
        assert t.shape == (4, 6)
        assert t.format is TileFormat.DENSE

    def test_rank_is_min_dim(self):
        assert DenseTile(np.zeros((4, 6))).rank == 4

    def test_to_dense_is_view(self):
        data = np.eye(3)
        t = DenseTile(data)
        assert t.to_dense() is t.data

    def test_memory_elements(self):
        assert DenseTile(np.zeros((4, 6))).memory_elements() == 24

    def test_memory_ignores_maxrank(self):
        assert DenseTile(np.zeros((4, 4))).memory_elements(maxrank=2) == 16

    def test_copy_is_deep(self):
        t = DenseTile(np.zeros((2, 2)))
        c = t.copy()
        c.data[0, 0] = 5.0
        assert t.data[0, 0] == 0.0

    def test_rejects_non_2d(self):
        with pytest.raises(KernelError):
            DenseTile(np.zeros(5))

    def test_coerces_dtype(self):
        assert DenseTile(np.zeros((2, 2), dtype=np.float32)).data.dtype == np.float64


class TestLowRankTile:
    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal((6, 2)), rng.standard_normal((5, 2))
        t = LowRankTile(u, v)
        assert t.shape == (6, 5)
        assert t.rank == 2
        np.testing.assert_allclose(t.to_dense(), u @ v.T)

    def test_format(self):
        assert LowRankTile(np.zeros((3, 1)), np.zeros((3, 1))).format is TileFormat.LOW_RANK

    def test_rank_mismatch_rejected(self):
        with pytest.raises(KernelError, match="rank mismatch"):
            LowRankTile(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_zero_tile(self):
        t = LowRankTile.zero(4, 7)
        assert t.rank == 0
        assert t.shape == (4, 7)
        np.testing.assert_array_equal(t.to_dense(), np.zeros((4, 7)))

    def test_dynamic_memory(self):
        t = LowRankTile(np.zeros((10, 3)), np.zeros((8, 3)))
        assert t.memory_elements() == (10 + 8) * 3

    def test_static_memory_uses_maxrank(self):
        t = LowRankTile(np.zeros((10, 3)), np.zeros((8, 3)))
        assert t.memory_elements(maxrank=5) == (10 + 8) * 5

    def test_copy_is_deep(self):
        t = LowRankTile(np.ones((3, 1)), np.ones((3, 1)))
        c = t.copy()
        c.u[0, 0] = 9.0
        assert t.u[0, 0] == 1.0

    def test_rejects_non_2d_factors(self):
        with pytest.raises(KernelError):
            LowRankTile(np.zeros(3), np.zeros((3, 1)))


def test_a_pending_copy_never_shares_recycled_storage():
    """Two matrices must never generate into one buffer: a copy of a
    pending tile is its recipe without ``out``."""
    recycled = PendingTile(None, 1, 0, (4, 4), out=np.empty((4, 4)))
    assert recycled.copy().out is None
    assert recycled.copy().shape == recycled.shape
    plain = PendingTile(None, 1, 0, (4, 4))
    assert plain.copy() is plain
