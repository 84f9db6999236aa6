"""Adaptive mixed-precision TLR storage *and compute* (paper Section IX).

The paper closes by proposing to "combine [BAND-DENSE-TLR] with
mixed-precision algorithms": off-band compressed tiles already carry an
O(ε) approximation error, so storing their factors in single precision
(unit roundoff ≈ 6e-8) costs nothing numerically whenever ε ≳ 1e-7 —
while halving the off-band memory footprint and communication volume.

This module is the policy layer of a real mixed-precision compute path
(not just storage modeling, its original scope):

* :class:`PrecisionPolicy` — per-tile dtype selection.  ``"adaptive"``
  stores off-band low-rank tiles in float32 when the certified ε of the
  :class:`~repro.linalg.compression.TruncationRule` clears the
  :attr:`~PrecisionPolicy.fp32_eps_floor` (default 1e-7, safely above
  fp32 roundoff) and falls back to float64 otherwise; ``"fp32"`` forces
  single precision on every low-rank tile; ``"fp64"`` is the historical
  all-double behaviour.  Dense tiles — the band and the Cholesky factors
  themselves — are always float64.
* :func:`apply_precision` — cast a matrix's tiles to the policy in place
  and return a :class:`MixedPrecisionReport` with exact byte accounting.
* Downstream, the hcore kernels preserve each destination tile's storage
  dtype (fp32 tiles are TRSM-solved and QR-SVD-recompressed by the
  single-precision LAPACK drivers; dense accumulations against fp32
  operands promote to fp64 — fp32 storage, fp64 accumulate), so an
  adaptive factorization really runs its off-band flops in single
  precision.  See :meth:`CompressionBackend.recompress_update
  <repro.linalg.backends.CompressionBackend.recompress_update>`.

The original storage-only modeling helpers (:func:`quantize_tile`,
:func:`demote_matrix`) are kept: they answer "what would dtype-storage
cost numerically" on an otherwise double-precision matrix, which remains
useful for float16 what-ifs the compute path does not support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.exceptions import ConfigurationError
from .tiles import DenseTile, LowRankTile, Tile

__all__ = [
    "PRECISION_MODES",
    "PRECISION_IDENTITIES",
    "PrecisionPolicy",
    "resolve_precision",
    "precision_identity",
    "identity_compatible",
    "apply_precision",
    "mixed_precision_report",
    "quantize_tile",
    "demote_matrix",
    "MixedPrecisionReport",
]

_SUPPORTED = (np.float32, np.float16)

#: Recognized precision mode names (CLI ``--precision`` choices).
PRECISION_MODES = ("fp64", "adaptive", "fp32")

#: ε-resolved precision identities (what a factor's storage *actually*
#: is, as opposed to the mode that was requested).  ``"adaptive"`` never
#: appears here: once ε is known, adaptive resolves to either
#: ``"fp32-adaptive"`` (the floor cleared, off-band tiles demoted) or
#: ``"fp64"`` (floor not cleared, nothing demoted — the factor is
#: bitwise an fp64 factor).
PRECISION_IDENTITIES = ("fp64", "fp32-adaptive", "fp32")


@dataclass(frozen=True)
class PrecisionPolicy:
    """Per-tile storage/compute dtype selection.

    Attributes
    ----------
    mode:
        ``"fp64"`` (everything double), ``"adaptive"`` (float32 off-band
        low-rank tiles when ε clears the floor), or ``"fp32"`` (float32
        on every low-rank tile, regardless of ε — a user override for
        experiments).
    fp32_eps_floor:
        Minimum truncation ε for which adaptive mode certifies float32
        storage.  Below it (e.g. ε = 1e-10) single-precision roundoff
        would dominate the tile's error budget, so the fp64 fallback
        engages.
    """

    mode: str = "fp64"
    fp32_eps_floor: float = 1e-7

    def __post_init__(self) -> None:
        if self.mode not in PRECISION_MODES:
            raise ConfigurationError(
                f"precision mode must be one of {PRECISION_MODES}, "
                f"got {self.mode!r}"
            )
        if self.fp32_eps_floor <= 0:
            raise ConfigurationError(
                f"fp32_eps_floor must be positive, got {self.fp32_eps_floor}"
            )

    def storage_dtype(
        self, *, eps: float, distance: int, band_size: int
    ) -> np.dtype:
        """Storage dtype for a *low-rank* tile.

        Parameters
        ----------
        eps:
            The truncation rule's certified tolerance.
        distance:
            Sub-diagonal distance ``i - j`` of the tile.
        band_size:
            The matrix's dense band width; tiles with
            ``distance < band_size`` are on the band and (being dense)
            never reach this policy, but the guard keeps the rule total.
        """
        if self.mode == "fp32":
            return np.dtype(np.float32)
        if (
            self.mode == "adaptive"
            and eps >= self.fp32_eps_floor
            and distance >= band_size
        ):
            return np.dtype(np.float32)
        return np.dtype(np.float64)


def resolve_precision(
    spec: str | PrecisionPolicy | None,
) -> PrecisionPolicy:
    """Resolve a precision spec: a policy, a mode name, or ``None`` (fp64)."""
    if spec is None:
        return PrecisionPolicy()
    if isinstance(spec, PrecisionPolicy):
        return spec
    if isinstance(spec, str):
        return PrecisionPolicy(mode=spec)
    raise ConfigurationError(
        f"precision must be a mode name {PRECISION_MODES}, a "
        f"PrecisionPolicy, or None; got {type(spec).__name__}"
    )


def precision_identity(spec: str | PrecisionPolicy | None, eps: float) -> str:
    """The ε-resolved storage identity a precision spec denotes.

    ``"adaptive"`` is a *request*, not a storage fact: what a factor
    actually holds depends on whether ε clears the policy's
    :attr:`~PrecisionPolicy.fp32_eps_floor`.  This function is the one
    place that resolution lives — :class:`MixedPrecisionReport.identity`
    reports the same identity from the realized side, and the service's
    factor-cache keys use this function on the request side, so the two
    can never disagree on what "the same precision" means (an
    fp32-adaptive factor must never be served to an fp64-strict
    request).
    """
    policy = resolve_precision(spec)
    if policy.mode == "adaptive":
        return "fp32-adaptive" if eps >= policy.fp32_eps_floor else "fp64"
    return policy.mode


def identity_compatible(requested: str, realized: str) -> bool:
    """May a factor with storage identity ``realized`` serve ``requested``?

    Exact matches always serve.  The one permitted substitution is a
    **pure-fp64 factor serving a request that allowed fp32**: full
    precision is a strict superset of what the request asked for.  The
    reverse — any fp32-touched factor (``"fp32"`` or
    ``"fp32-adaptive"``) answering an ``"fp64"``-strict request — is
    never compatible.
    """
    return requested == realized or realized == "fp64"


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
        Off-band low-rank footprint at the actual storage dtypes —
        adaptive mode halves this relative to ``offband_bytes_full``
        when every off-band tile is certified for float32.
    mode:
        The policy mode that produced this accounting (``""`` for the
        storage-only :func:`demote_matrix` modeling path).
    """

    demoted_tiles: int
    bytes_full: int
    bytes_mixed: int
    offband_bytes_full: int = 0
    offband_bytes_mixed: int = 0
    mode: str = ""

    @property
    def identity(self) -> str:
        """ε-resolved storage identity of the factor this report describes.

        The realized-side counterpart of :func:`precision_identity`: an
        ``"adaptive"``-mode factorization that demoted nothing *is* an
        fp64 factor (bitwise), so it reports ``"fp64"``; one that
        demoted tiles reports ``"fp32-adaptive"``.  A missing/empty mode
        (the storage-only modeling path, or no policy at all) reports
        ``"fp64"``.  Cache lookups compare this against the request's
        :func:`precision_identity` via :func:`identity_compatible`.
        """
        if self.mode == "adaptive":
            return "fp32-adaptive" if self.demoted_tiles else "fp64"
        return self.mode or "fp64"

    @property
    def saving_factor(self) -> float:
        return self.bytes_full / max(self.bytes_mixed, 1)

    @property
    def offband_saving_factor(self) -> float:
        """fp64-footprint / actual-footprint over off-band low-rank tiles."""
        return self.offband_bytes_full / max(self.offband_bytes_mixed, 1)


def mixed_precision_report(matrix, mode: str = "") -> MixedPrecisionReport:
    """Byte accounting of a matrix's *actual* tile storage dtypes."""
    demoted = 0
    bytes_full = bytes_mixed = 0
    off_full = off_mixed = 0
    for tile in matrix.tiles.values():
        nbytes64 = tile.memory_elements() * 8
        bytes_full += nbytes64
        actual = tile.memory_bytes()
        bytes_mixed += actual
        if isinstance(tile, LowRankTile):
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
        mode=mode,
    )


def apply_precision(matrix, policy: PrecisionPolicy) -> MixedPrecisionReport:
    """Cast a matrix's low-rank tiles to ``policy`` in place.

    Promotes as well as demotes — applying the ``"fp64"`` policy to a
    mixed matrix restores all-double storage.  Dense tiles are never
    touched; a pending tile takes the dtype it will be compressed to.
    Returns the post-cast byte accounting.
    """
    eps = matrix.rule.eps
    for (i, j), tile in matrix.tiles.items():
        if isinstance(tile, DenseTile):
            continue
        target = policy.storage_dtype(
            eps=eps, distance=i - j, band_size=matrix.band_size
        )
        if tile.dtype != target:
            matrix.tiles[(i, j)] = tile.astype(target)
    matrix.precision = policy
    return mixed_precision_report(matrix, mode=policy.mode)


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
    changing any compute.  For the real mixed compute path use
    :func:`apply_precision` / ``tlr_cholesky(precision=...)``.

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
