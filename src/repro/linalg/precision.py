"""Single precision wherever ε allows (paper Section IX).

The paper closes by proposing to "combine [BAND-DENSE-TLR] with
mixed-precision algorithms": an off-band compressed tile already carries
an O(ε) approximation error, so storing *and computing* its factors in
single precision (unit roundoff ≈ 6e-8) costs nothing numerically
whenever ε ≳ 1e-7, while halving the off-band memory footprint and
communication volume and running its compressions on the ``s``-prefixed
LAPACK drivers.

That is the behaviour, not an option: :func:`lowrank_dtype` is the rule
(an off-band low-rank tile is float32 iff ``rule.eps >=``
:data:`FP32_EPS_FLOOR`), and :meth:`BandTLRMatrix._storage_dtype
<repro.matrix.BandTLRMatrix._storage_dtype>` is the one place tiles get
their dtype from it.  Dense tiles — the band, tiles born dense and the
Cholesky factors themselves — are always float64.  A factor's precision
is therefore a function of ε alone.

Downstream, the hcore kernels preserve each destination tile's storage
dtype (fp32 tiles are TRSM-solved and compressed or QR-SVD-rounded by
the single-precision drivers; dense accumulations against fp32 operands
promote to fp64 — fp32 storage, fp64 accumulate); see
:meth:`CompressionBackend.recompress_update
<repro.linalg.backends.CompressionBackend.recompress_update>`.
:func:`mixed_precision_report` is the byte accounting of a factor's
actual dtypes.

The storage-only modeling helpers (:func:`quantize_tile`,
:func:`demote_matrix`) answer "what would dtype storage cost
numerically" on an otherwise double-precision matrix, which stays useful
for float16 what-ifs the compute path does not support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.exceptions import ConfigurationError
from .tiles import DenseTile, LowRankTile, Tile

__all__ = [
    "FP32_EPS_FLOOR",
    "lowrank_dtype",
    "mixed_precision_report",
    "quantize_tile",
    "demote_matrix",
    "MixedPrecisionReport",
]

_SUPPORTED = (np.float32, np.float16)

#: Smallest truncation ε at which an off-band low-rank tile is float32:
#: safely above single-precision roundoff, so the fp32 error stays inside
#: the tile's ε budget.
FP32_EPS_FLOOR = 1e-7


def lowrank_dtype(eps: float) -> np.dtype:
    """Storage and compute dtype of a low-rank tile compressed to ``eps``."""
    return np.dtype(np.float32 if eps >= FP32_EPS_FLOOR else np.float64)


def quantize_tile(tile: Tile, dtype=np.float32) -> Tile:
    """Round a tile's payload through ``dtype`` (returned in float64).

    The returned tile is numerically identical to what a true
    ``dtype``-storage implementation would deliver to a double-precision
    kernel.
    """
    if dtype not in _SUPPORTED:
        raise ConfigurationError(
            f"dtype must be one of {[d.__name__ for d in _SUPPORTED]}"
        )
    if isinstance(tile, DenseTile):
        return DenseTile(tile.data.astype(dtype).astype(np.float64))
    return LowRankTile(
        tile.u.astype(dtype).astype(np.float64),
        tile.v.astype(dtype).astype(np.float64),
    )


@dataclass(frozen=True)
class MixedPrecisionReport:
    """Byte accounting of a mixed-precision matrix.

    Attributes
    ----------
    demoted_tiles:
        Number of tiles stored in the lower precision.
    bytes_full:
        Footprint with everything in float64.
    bytes_mixed:
        Footprint with demoted tiles at the lower precision.
    offband_bytes_full:
        Off-band low-rank footprint with everything in float64.
    offband_bytes_mixed:
        Off-band low-rank footprint at the actual storage dtypes — half
        of ``offband_bytes_full`` when ε clears :data:`FP32_EPS_FLOOR`.
    lowrank_tiles:
        Number of low-rank tiles (the tiles that may be demoted).
    """

    demoted_tiles: int
    bytes_full: int
    bytes_mixed: int
    offband_bytes_full: int = 0
    offband_bytes_mixed: int = 0
    lowrank_tiles: int = 0

    @property
    def saving_factor(self) -> float:
        return self.bytes_full / max(self.bytes_mixed, 1)

    @property
    def offband_saving_factor(self) -> float:
        """fp64-footprint / actual-footprint over off-band low-rank tiles."""
        return self.offband_bytes_full / max(self.offband_bytes_mixed, 1)


def mixed_precision_report(matrix) -> MixedPrecisionReport:
    """Byte accounting of a matrix's *actual* tile storage dtypes."""
    demoted = lowrank = 0
    bytes_full = bytes_mixed = 0
    off_full = off_mixed = 0
    for tile in matrix.tiles.values():
        nbytes64 = tile.memory_elements() * 8
        bytes_full += nbytes64
        actual = tile.memory_bytes()
        bytes_mixed += actual
        if isinstance(tile, LowRankTile):
            lowrank += 1
            off_full += nbytes64
            off_mixed += actual
            if tile.dtype != np.float64:
                demoted += 1
    return MixedPrecisionReport(
        demoted_tiles=demoted,
        bytes_full=bytes_full,
        bytes_mixed=bytes_mixed,
        offband_bytes_full=off_full,
        offband_bytes_mixed=off_mixed,
        lowrank_tiles=lowrank,
    )


def demote_matrix(
    matrix,
    *,
    dtype=np.float32,
    min_distance: int = 1,
):
    """Quantize compressed tiles at sub-diagonal distance >= ``min_distance``.

    Storage-only *modeling*: demoted tiles pass through ``dtype`` but are
    returned as float64 payloads, so downstream double-precision kernels
    see exactly the value error a ``dtype`` store would incur, without
    changing any compute.  The real compute path needs no call: it is
    the ε rule of :func:`lowrank_dtype`.

    Parameters
    ----------
    matrix:
        A :class:`~repro.matrix.BandTLRMatrix` (mutated copy returned).
    dtype:
        Storage precision for demoted tiles (float32 or float16).
    min_distance:
        Only tiles with ``i - j >= min_distance`` are demoted — near-band
        tiles, whose accuracy matters most, stay in double.

    Returns
    -------
    (matrix, MixedPrecisionReport)
    """
    if min_distance < 1:
        raise ConfigurationError("min_distance must be >= 1")
    itemsize = np.dtype(dtype).itemsize
    out = matrix.copy()
    demoted = 0
    bytes_full = 0
    bytes_mixed = 0
    for (i, j), tile in out.tiles.items():
        nbytes64 = tile.memory_elements() * 8
        bytes_full += nbytes64
        if isinstance(tile, LowRankTile) and (i - j) >= min_distance:
            out.tiles[(i, j)] = quantize_tile(tile, dtype)
            demoted += 1
            bytes_mixed += tile.memory_elements() * itemsize
        else:
            bytes_mixed += nbytes64
    return out, MixedPrecisionReport(
        demoted_tiles=demoted, bytes_full=bytes_full, bytes_mixed=bytes_mixed
    )
