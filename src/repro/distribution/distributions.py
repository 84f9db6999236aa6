"""Tile-to-process data distributions (Section VII-C, Fig. 5).

Three distributions are provided:

* :class:`TwoDBlockCyclic` — the ScaLAPACK 2DBCDD used for off-band tiles;
* :class:`OneDBlockCyclic` — the "artificial" 1DBCDD the auto-tuner uses to
  spread each sub-diagonal across all processes (Algorithm 1), and the
  building block of the band distribution;
* :class:`BandDistribution` — the paper's hybrid: on-band tiles follow a
  *modified row-based* (lower triangular) or *column-based* (upper)
  1DBCDD, off-band tiles follow 2DBCDD on a process grid.

Every distribution is a total function from lower-triangular tile indices
to process ranks (bijective coverage is property-tested), which is what
the runtime consults to classify dataflow edges LOCAL vs REMOTE and to
place tasks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..utils.exceptions import DistributionError
from ..utils.validation import check_in, check_positive_int
from .process_grid import ProcessGrid

__all__ = [
    "Distribution",
    "TwoDBlockCyclic",
    "OneDBlockCyclic",
    "BandDistribution",
    "default_distribution",
    "load_per_process",
]


class Distribution(ABC):
    """Maps lower-triangular tile indices to owning process ranks."""

    @property
    @abstractmethod
    def nprocs(self) -> int:
        """Number of processes the distribution targets."""

    @abstractmethod
    def owner(self, i: int, j: int) -> int:
        """Rank owning tile ``(i, j)`` (``i >= j``)."""

    def _check(self, i: int, j: int) -> None:
        if i < 0 or j < 0 or i < j:
            raise DistributionError(
                f"tile ({i}, {j}) is not a lower-triangular index"
            )


@dataclass(frozen=True)
class TwoDBlockCyclic(Distribution):
    """ScaLAPACK two-dimensional block-cyclic distribution.

    Tile ``(i, j)`` lives on grid coordinate ``(i mod P, j mod Q)``.
    """

    grid: ProcessGrid

    @property
    def nprocs(self) -> int:
        return self.grid.size

    def owner(self, i: int, j: int) -> int:
        self._check(i, j)
        return self.grid.rank_of(i, j)


@dataclass(frozen=True)
class OneDBlockCyclic(Distribution):
    """One-dimensional block-cyclic distribution.

    ``axis="row"`` assigns tile ``(i, j)`` to ``i mod size`` (all tiles of
    a row share an owner); ``axis="column"`` uses ``j mod size``;
    ``axis="subdiagonal"`` spreads each sub-diagonal evenly by assigning
    position ``j`` within sub-diagonal ``i - j`` to ``j mod size`` — the
    artificial distribution Algorithm 1 uses so "all resources are utilized"
    during BAND_SIZE auto-tuning.
    """

    size: int
    axis: str = "row"

    def __post_init__(self) -> None:
        check_positive_int("size", self.size)
        check_in("axis", self.axis, ("row", "column", "subdiagonal"))

    @property
    def nprocs(self) -> int:
        return self.size

    def owner(self, i: int, j: int) -> int:
        self._check(i, j)
        if self.axis == "row":
            return i % self.size
        if self.axis == "column":
            return j % self.size
        return j % self.size  # position within sub-diagonal i-j is j


@dataclass(frozen=True)
class BandDistribution(Distribution):
    """The paper's hybrid band + 2DBCDD distribution (Fig. 5 b/c).

    On-band tiles (``|i - j| < band_size``) follow a modified 1DBCDD:
    row-based for a lower-triangular factorization (all on-band tiles of
    row ``i`` on process ``i mod size``) so the dense TRSMs of a panel land
    on distinct processes *and* the mostly-sequential kernels along a row
    need no communication; column-based for the upper-triangular variant.
    Off-band tiles follow plain 2DBCDD on the grid.
    """

    grid: ProcessGrid
    band_size: int
    uplo: str = "lower"

    def __post_init__(self) -> None:
        check_positive_int("band_size", self.band_size)
        check_in("uplo", self.uplo, ("lower", "upper"))

    @property
    def nprocs(self) -> int:
        return self.grid.size

    def on_band(self, i: int, j: int) -> bool:
        """True when tile ``(i, j)`` belongs to the dense band."""
        return abs(i - j) < self.band_size

    def owner(self, i: int, j: int) -> int:
        self._check(i, j)
        if self.on_band(i, j):
            key = i if self.uplo == "lower" else j
            return key % self.grid.size
        return self.grid.rank_of(i, j)


def default_distribution(graph, n_ranks: int) -> BandDistribution:
    """The placement used wherever none is given: the hybrid band layout
    on the ``P x Q = n_ranks`` grid minimising the *per-panel work bound*
    ``sum_panel max_rank sum(task.flops)`` under owner-computes placement.

    A panel's tasks become ready together, so its busiest rank bounds its
    time: the fused graph (a tile column's GEMMs are one panel) wants tall
    grids, ``P x 1``; the right-looking PTG keeps the paper's wide one.
    Bounds within 2 % tie towards the squarer grid (fewer messages),
    ``P <= Q`` first.  Pure in its arguments, O(tasks) per candidate.
    """
    n_ranks = check_positive_int("n_ranks", n_ranks)
    bounds = {}
    for p in (p for p in range(1, n_ranks + 1) if n_ranks % p == 0):
        dist = BandDistribution(ProcessGrid(p, n_ranks // p), graph.band_size)
        panels: dict[int, list[float]] = {}
        for task in graph.tasks.values():
            work = panels.setdefault(task.panel, [0.0] * n_ranks)
            work[dist.owner(*task.out_tile)] += task.flops
        bounds[dist] = sum(map(max, panels.values()))
    best = min(bounds.values())
    return min(
        (d for d, bound in bounds.items() if bound <= 1.02 * best),
        key=lambda d: (abs(d.grid.p - d.grid.q), d.grid.p),
    )


def load_per_process(
    dist: Distribution,
    ntiles: int,
    weight=None,
) -> np.ndarray:
    """Per-process accumulated load over the lower triangle.

    Parameters
    ----------
    dist:
        The distribution to evaluate.
    ntiles:
        Tile count per dimension.
    weight:
        Optional ``weight(i, j) -> float`` (e.g. tile memory or modelled
        flops); defaults to 1 per tile (tile counts).

    Returns
    -------
    numpy.ndarray
        Length ``dist.nprocs`` array of accumulated load.
    """
    load = np.zeros(dist.nprocs)
    for i in range(ntiles):
        for j in range(i + 1):
            w = 1.0 if weight is None else float(weight(i, j))
            load[dist.owner(i, j)] += w
    return load
