"""Tile compression and recompression (rounding) to an accuracy threshold.

Compression turns a dense tile into the :class:`~repro.linalg.tiles.LowRankTile`
``U @ V.T`` keeping "the most significant singular values above the accuracy
threshold" (paper, Section VIII-A).  Two truncation rules are provided:

* ``"spectral"`` — keep σ_i with σ_i > ε (absolute 2-norm error ≤ ε), the
  rule the paper describes;
* ``"frobenius"`` — smallest k with sqrt(Σ_{i>k} σ_i²) ≤ ε.

Both accept ``relative=True`` to scale ε by σ_1.

Recompression (a.k.a. *rounding*) re-truncates the sum of low-rank terms
produced by the TLR GEMM.  It is implemented with the standard
QR-QR-SVD scheme: QR-factor the stacked U and V blocks, SVD the small
``R_u @ R_v.T`` core, and truncate.  The paper splits the low-rank GEMM at
exactly this recompression boundary to reallocate tile memory when the rank
grows (Section VII-B); :func:`recompress` therefore reports the pre- and
post-recompression ranks so the memory pool can be driven faithfully.

The numerics behind both operations live in pluggable *backends*
(:mod:`repro.linalg.backends`): ``"svd"`` is the deterministic truncated
SVD described above, ``"rsvd"`` an adaptive randomized SVD that certifies
the same ε, ``"auto"`` the per-tile choice between them.
:func:`compress_block`, :func:`compress_tile` and :func:`recompress`
dispatch to a backend (``None``: the registry default).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.exceptions import ConfigurationError
from ..utils.validation import check_in, check_positive_float
from .tiles import DenseTile, LowRankTile

__all__ = [
    "TruncationRule",
    "truncation_rank",
    "compress_block",
    "compress_tile",
    "recompress",
    "RecompressionResult",
]


@dataclass(frozen=True)
class TruncationRule:
    """How singular values are truncated during (re)compression.

    Attributes
    ----------
    eps:
        Accuracy threshold ε (e.g. the paper's 1e-8).
    norm:
        ``"spectral"`` or ``"frobenius"`` (see module docstring).
    relative:
        Scale ε by the largest singular value when true.
    maxrank:
        Hard cap on the retained rank, or ``None`` for uncapped.  HiCMA's
        static descriptor caps at ``b/2`` to keep TLR storage competitive.
    """

    eps: float = 1e-8
    norm: str = "spectral"
    relative: bool = False
    maxrank: int | None = None

    def __post_init__(self) -> None:
        check_positive_float("eps", self.eps)
        check_in("norm", self.norm, ("spectral", "frobenius"))
        if self.maxrank is not None and self.maxrank < 0:
            raise ConfigurationError(f"maxrank must be >= 0, got {self.maxrank}")

    def with_maxrank(self, maxrank: int | None) -> "TruncationRule":
        """A copy of this rule with a different rank cap."""
        return TruncationRule(self.eps, self.norm, self.relative, maxrank)


def truncation_rank(singular_values: np.ndarray, rule: TruncationRule) -> int:
    """Number of singular values to keep under ``rule``.

    ``singular_values`` must be sorted in non-increasing order (as returned
    by SVD routines).  The result respects ``rule.maxrank`` when set; the
    cap silently truncates (the accuracy guarantee is then void, mirroring
    HiCMA-Prev's behaviour with a saturated static descriptor).
    """
    s = np.asarray(singular_values, dtype=np.float64)
    if s.size == 0:
        return 0
    threshold = rule.eps * (s[0] if rule.relative else 1.0)
    if rule.norm == "spectral":
        k = int(np.count_nonzero(s > threshold))
    else:  # frobenius: keep smallest k with tail energy <= threshold
        tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[i] = ||s[i:]||_2
        keep = tail > threshold
        k = int(np.count_nonzero(keep))
    if rule.maxrank is not None:
        k = min(k, rule.maxrank)
    return k


def compress_block(
    a: np.ndarray,
    rule: TruncationRule,
    *,
    backend=None,
    seed=None,
) -> LowRankTile:
    """Compress a dense block into a :class:`LowRankTile`.

    Dispatches to a :class:`~repro.linalg.backends.CompressionBackend`
    (an instance, a registry name like ``"rsvd"``, or ``None`` for the
    registry default).  The singular values are folded symmetrically
    into both factors (``U = U_s * sqrt(s)``, ``V = V_s * sqrt(s)``) to
    balance their norms — this keeps downstream QR recompressions
    well-conditioned.  ``seed`` pins the randomness of stochastic
    backends (deterministic ones ignore it).
    """
    from .backends import get_backend

    return get_backend(backend).compress(a, rule, seed=seed)


def compress_tile(
    tile: DenseTile,
    rule: TruncationRule,
    *,
    backend=None,
    seed=None,
) -> LowRankTile:
    """Compress a :class:`DenseTile` (convenience wrapper)."""
    return compress_block(tile.data, rule, backend=backend, seed=seed)


@dataclass
class RecompressionResult:
    """Outcome of a recompression, including the memory-pool drive signals.

    Attributes
    ----------
    tile:
        The rounded low-rank tile (a :class:`DenseTile` when a pending
        tile is born dense, with ``rank_after`` 0).
    rank_before:
        Storage rank of the *stacked* representation entering the QR stage
        (= k_c + k_update); this is the transient memory high-water mark.
    rank_after:
        Rank retained after truncation.
    grew:
        True when ``rank_after`` exceeds the rank the destination tile had
        before the update — the condition under which PaRSEC-HiCMA-New
        reallocates and re-associates the tile's memory.
    """

    tile: LowRankTile | DenseTile
    rank_before: int
    rank_after: int
    grew: bool


def recompress(
    u_stack: np.ndarray,
    v_stack: np.ndarray,
    rule: TruncationRule,
    *,
    previous_rank: int | None = None,
    backend=None,
) -> RecompressionResult:
    """Round a low-rank representation ``u_stack @ v_stack.T`` to ``rule``.

    Parameters
    ----------
    u_stack, v_stack:
        Factors of shape ``(m, r)`` and ``(n, r)``; typically horizontal
        concatenations of the destination tile's factors and the update's
        factors, so ``r = k_c + k_ab``.
    rule:
        Truncation rule.
    previous_rank:
        Rank of the destination tile before the update, used to flag rank
        growth; defaults to ``r`` (never flags growth).
    backend:
        Compression backend (instance, registry name, or ``None`` for the
        default); all backends share the QR-QR-SVD rounding scheme.

    Returns
    -------
    RecompressionResult
    """
    from .backends import get_backend

    return get_backend(backend).recompress(
        u_stack, v_stack, rule, previous_rank=previous_rank
    )
