"""Unit tests for memory accounting (Fig. 8 bookkeeping)."""

import pytest

from repro.linalg import DenseTile, LowRankTile, PendingTile
from repro.matrix import (
    BYTES_PER_ELEMENT,
    BandTLRMatrix,
    MemoryTracker,
    footprint_report,
)
from repro.utils import ConfigurationError

import numpy as np


class TestFootprintReport:
    def test_reduction_factor_positive(self, small_tlr):
        rep = footprint_report(small_tlr)
        assert rep.maxrank == 32  # b/2 default
        assert rep.reduction_factor > 0

    def test_static_exceeds_dynamic_when_ranks_low(self, medium_problem, rule8):
        # Loose accuracy gives low ranks, so the static maxrank descriptor
        # wastes memory relative to exact allocation.
        from repro import TruncationRule

        m = BandTLRMatrix.from_problem(
            medium_problem, TruncationRule(eps=1e-2), band_size=1
        )
        rep = footprint_report(m)
        assert rep.static_elements > rep.dynamic_elements
        assert rep.reduction_factor > 1.5

    def test_dense_elements_is_lower_triangle(self, small_tlr):
        rep = footprint_report(small_tlr)
        assert rep.dense_elements == 36 * 64 * 64

    def test_bytes_properties(self, small_tlr):
        rep = footprint_report(small_tlr)
        assert rep.static_bytes == rep.static_elements * BYTES_PER_ELEMENT
        assert rep.dynamic_bytes == rep.dynamic_elements * BYTES_PER_ELEMENT

    def test_rejects_bad_maxrank(self, small_tlr):
        with pytest.raises(ConfigurationError):
            footprint_report(small_tlr, maxrank=0)


class TestMemoryTracker:
    def test_register_matrix(self, small_tlr):
        t = MemoryTracker()
        t.register_matrix(small_tlr)
        assert t.current_elements == small_tlr.memory_elements()
        assert t.peak_elements == t.current_elements

    def test_reallocation_counted(self):
        t = MemoryTracker()
        t.allocate_tile((1, 0), LowRankTile(np.zeros((8, 2)), np.zeros((8, 2))))
        assert t.reallocations == 0
        t.allocate_tile((1, 0), LowRankTile(np.zeros((8, 5)), np.zeros((8, 5))))
        assert t.reallocations == 1
        assert t.current_elements == 16 * 5

    def test_generating_a_pending_tile_is_not_a_realloc(self):
        t = MemoryTracker()
        t.allocate_tile((1, 0), PendingTile(None, 1, 0, (4, 4)))
        t.allocate_tile((1, 0), DenseTile(np.zeros((4, 4))))
        assert t.reallocations == 0
        assert t.current_elements == 16

    def test_same_size_replacement_not_a_realloc(self):
        t = MemoryTracker()
        t.allocate_tile((0, 0), DenseTile(np.zeros((4, 4))))
        t.allocate_tile((0, 0), DenseTile(np.ones((4, 4))))
        assert t.reallocations == 0

    def test_peak_tracks_transients(self):
        t = MemoryTracker()
        t.allocate_tile((0, 0), DenseTile(np.zeros((4, 4))))
        t.transient(100)
        assert t.peak_elements == 16 + 100
        assert t.current_elements == 16

    def test_transient_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MemoryTracker().transient(-1)

    def test_bytes(self):
        t = MemoryTracker()
        t.allocate_tile((0, 0), DenseTile(np.zeros((2, 2))))
        assert t.current_bytes == 4 * BYTES_PER_ELEMENT
