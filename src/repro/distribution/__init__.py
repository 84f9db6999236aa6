"""Tile-to-process data distributions (2DBCDD, 1DBCDD, hybrid band)."""

from .distributions import (
    BandDistribution,
    Distribution,
    OneDBlockCyclic,
    TwoDBlockCyclic,
    default_distribution,
    load_per_process,
)
from .process_grid import ProcessGrid

__all__ = [
    "ProcessGrid",
    "Distribution",
    "TwoDBlockCyclic",
    "OneDBlockCyclic",
    "BandDistribution",
    "default_distribution",
    "load_per_process",
]
