"""Memory-footprint accounting: static descriptor vs dynamic designation.

Reproduces the bookkeeping behind Fig. 8: PaRSEC-HiCMA-Prev allocates every
compressed tile at ``2 * maxrank * b`` elements inside a rigid ScaLAPACK-like
descriptor, while PaRSEC-HiCMA-New allocates ``2 * k * b`` exactly and
reallocates when recompression grows a rank.  The tracker records the
high-water mark including transient stacked buffers, which is what bounds
the largest solvable problem on a fixed node budget (Section VIII-F).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..utils.exceptions import ConfigurationError
from .tlr_matrix import BandTLRMatrix

__all__ = ["MemoryReport", "footprint_report", "MemoryTracker", "BYTES_PER_ELEMENT"]

#: Double precision storage.
BYTES_PER_ELEMENT = 8


@dataclass(frozen=True)
class MemoryReport:
    """Side-by-side footprint of the two allocation strategies.

    Attributes
    ----------
    static_elements:
        Elements under the Prev scheme (compressed tiles at maxrank).
    dynamic_elements:
        Elements under the New scheme (compressed tiles at exact rank).
    dense_elements:
        Elements a fully dense lower-triangular storage would need.
    maxrank:
        The static scheme's rank cap used for the comparison.
    """

    static_elements: int
    dynamic_elements: int
    dense_elements: int
    maxrank: int

    @property
    def reduction_factor(self) -> float:
        """Static / dynamic footprint ratio (the paper reports up to 44x)."""
        if self.dynamic_elements == 0:
            return float("inf")
        return self.static_elements / self.dynamic_elements

    @property
    def static_bytes(self) -> int:
        return self.static_elements * BYTES_PER_ELEMENT

    @property
    def dynamic_bytes(self) -> int:
        return self.dynamic_elements * BYTES_PER_ELEMENT

    @property
    def dense_bytes(self) -> int:
        return self.dense_elements * BYTES_PER_ELEMENT


def footprint_report(
    matrix: BandTLRMatrix, maxrank: int | None = None
) -> MemoryReport:
    """Compute the Fig. 8 style memory comparison for a tile matrix.

    Parameters
    ----------
    matrix:
        The compressed matrix.
    maxrank:
        Static rank cap of the Prev scheme; defaults to HiCMA's competitive
        limit ``b / 2``.
    """
    matrix.require_realized("footprint_report")
    b = matrix.desc.tile_size
    if maxrank is None:
        maxrank = b // 2
    if maxrank < 1:
        raise ConfigurationError(f"maxrank must be >= 1, got {maxrank}")
    static = matrix.memory_elements(static_maxrank=maxrank)
    dynamic = matrix.memory_elements()
    dense = sum(
        int(np.prod(matrix.desc.tile_shape(i, j)))
        for (i, j) in matrix.desc.lower_tiles()
    )
    return MemoryReport(
        static_elements=static,
        dynamic_elements=dynamic,
        dense_elements=dense,
        maxrank=maxrank,
    )


@dataclass
class MemoryTracker:
    """Live allocation tracker used during factorizations.

    The executor reports every tile (re)allocation and transient stacked
    buffer; the tracker maintains the current and peak footprints so the
    benchmarks can report before/after-factorization memory like Fig. 8
    and Section VIII-F do.
    """

    current_elements: int = 0
    peak_elements: int = 0
    reallocations: int = 0
    _tile_sizes: dict[tuple[int, int], int] = field(default_factory=dict)

    def register_matrix(self, matrix: BandTLRMatrix) -> None:
        """Seed the tracker with a matrix's initial tile allocations."""
        for (i, j), tile in matrix.tiles.items():
            self.allocate_tile((i, j), tile)

    def allocate_tile(self, key: tuple[int, int], tile) -> None:
        """Record the allocation (or replacement) of a tile's buffers.

        A resize is a reallocation; the first buffers of a tile that held
        none (a pending tile's generation) are an allocation.
        """
        size = tile.memory_elements()
        old = self._tile_sizes.get(key)
        if old is not None:
            self.current_elements -= old
            if old and size != old:
                self.reallocations += 1
        self._tile_sizes[key] = size
        self.current_elements += size
        self.peak_elements = max(self.peak_elements, self.current_elements)
        if obs.enabled():
            obs.sample("memory_elements", self.current_elements)
            obs.gauge_set(
                "memory_peak_elements", self.peak_elements, stat="tiles"
            )

    def transient(self, elements: int) -> None:
        """Record a short-lived buffer (e.g. recompression stacks) that
        contributes to the peak but not to the steady-state footprint."""
        if elements < 0:
            raise ConfigurationError("transient size must be >= 0")
        self.peak_elements = max(self.peak_elements, self.current_elements + elements)
        if obs.enabled():
            obs.gauge_set(
                "memory_peak_elements", self.peak_elements, stat="with_transients"
            )

    @property
    def current_bytes(self) -> int:
        return self.current_elements * BYTES_PER_ELEMENT

    @property
    def peak_bytes(self) -> int:
        return self.peak_elements * BYTES_PER_ELEMENT
