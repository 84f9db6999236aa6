"""The BAND-DENSE-TLR symmetric tile matrix container.

One container covers the paper's three operating points:

* ``band_size = 1`` — classic TLR (only the diagonal is dense): the
  PaRSEC-HiCMA-Prev layout;
* ``1 < band_size < NT`` — BAND-DENSE-TLR: the paper's contribution;
* ``band_size >= NT`` — fully dense tiled storage: the dense baseline.

Only the lower triangle is stored (the matrix is symmetric; the paper's
Fig. 3a).  On-band tiles are :class:`DenseTile`; off-band tiles are
:class:`LowRankTile` compressed to the container's truncation rule — or,
in a matrix assembled with ``defer`` set, for one factorization, nothing
is generated: every tile is a :class:`PendingTile` recipe that the task
first writing it generates (as STARS-H generates inside the PaRSEC
dataflow), and each off-band tile takes its format where it is born
(§IX's per-tile generalization of the band) — column 0 at its TRSM, the
rest at the fused update, compressed once or kept dense
(:meth:`BandTLRMatrix.realize` makes them ordinary).

The container also implements the *densification/regeneration* step of the
BAND_SIZE auto-tuning pipeline (Section VIII-B): after tuning picks a wider
band, :meth:`with_band_size` regenerates on-band tiles in dense format from
the original problem (cheap — ``O(NT * band_size)`` tiles) without touching
the off-band compressed tiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..linalg.backends import default_backend
from ..linalg.compression import TruncationRule
from ..linalg.precision import lowrank_dtype
from ..linalg.tiles import DenseTile, LowRankTile, PendingTile, Tile, born_dense
from ..statistics.problem import CovarianceProblem
from ..utils.exceptions import ConfigurationError
from ..utils.validation import check_positive_int
from .descriptor import TileDescriptor

__all__ = ["BandTLRMatrix"]


@dataclass
class BandTLRMatrix:
    """Symmetric positive-definite matrix in BAND-DENSE-TLR tile storage.

    Attributes
    ----------
    desc:
        Blocking geometry.
    band_size:
        Number of dense sub-diagonals (diagonal included).
    rule:
        Truncation rule used for off-band tiles.
    tiles:
        Mapping ``(i, j) -> Tile`` over the lower triangle ``i >= j``.

    Off-band low-rank tiles are stored and computed in float32 when the
    rule's ε allows it (:meth:`_storage_dtype`), dense tiles in float64.
    """

    desc: TileDescriptor
    band_size: int
    rule: TruncationRule
    tiles: dict[tuple[int, int], Tile] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive_int("band_size", self.band_size)

    def _compress(self, block: np.ndarray, rank_hint=None) -> LowRankTile:
        """Compress one off-band block with the library's compressor.

        The block is cast once to the storage dtype and compressed in it
        (both routes keep the dtype).  The compressor draws nothing per
        call, so parallel assembly is bitwise the same at any worker count.
        """
        return default_backend().compress(
            block.astype(self._storage_dtype(), copy=False), self.rule,
            rank_hint=rank_hint,
        )

    def _storage_dtype(self) -> np.dtype:
        """Storage and compute dtype of the off-band low-rank tiles.

        The one place tiles get their dtype: float32 iff the rule's ε is
        at least :data:`~repro.linalg.precision.FP32_EPS_FLOOR`.
        """
        return lowrank_dtype(self.rule.eps)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_problem(
        cls,
        problem: CovarianceProblem,
        rule: TruncationRule,
        band_size: int = 1,
        *,
        n_workers: int | None = None,
        reuse: dict[tuple[int, int], LowRankTile] | None = None,
        defer: "bool | np.ndarray | BandTLRMatrix" = False,
    ) -> "BandTLRMatrix":
        """Generate + compress a covariance problem into tile storage.

        On-band tiles are generated dense; off-band tiles are generated
        dense then immediately compressed and the dense buffer dropped —
        the STARS-H -> HiCMA streaming pipeline, which never holds the full
        dense matrix.  Tiles are independent, so generation + compression
        fans out over ``n_workers`` threads; the result is bitwise
        identical for every worker count.
        ``reuse`` holds off-band tiles already compressed from this
        problem under the same rule (the auto-tuner's
        probe); they are taken as they are.

        With ``defer`` nothing is generated here: every tile not in
        ``reuse`` is left a :class:`~repro.linalg.tiles.PendingTile`, and
        :func:`~repro.core.factorize.tlr_cholesky` generates each in the
        task that first writes it (:meth:`generate`; an off-band tile of
        column ``j >= 1`` at its fused update), where every off-band tile
        decides its format.  ``defer=True`` applies
        :func:`~repro.linalg.tiles.born_dense` to the rank each tile's own
        compression finds (column 0 at its TRSM, the others after their
        update); ``defer=`` an ``NT x NT`` boolean map keeps the tiles it
        marks dense, never compressing them, and compresses the others
        blind.  ``defer=`` the factor of a previous, nearby problem (an
        MLE step's last factor) is the next step's assembly: its
        :meth:`dense_map` decides the formats, and each tile born
        low-rank is hinted by its rank there (the recipe's ``hint``, its
        compression's ``rank_hint``) — the birth that map prices.  The
        previous factor is only read.  :meth:`realize` carries the same
        decisions out without the updates.
        """
        desc = TileDescriptor(problem.n, problem.tile_size)
        mat = cls(desc=desc, band_size=band_size, rule=rule)
        dense_map, hints = None, {}
        if isinstance(defer, BandTLRMatrix):
            dense_map = defer.dense_map()
            hints = {
                ij: tile.rank for ij, tile in defer.tiles.items()
                if isinstance(tile, LowRankTile)
            }
        elif not isinstance(defer, (bool, np.bool_)):
            dense_map = np.asarray(defer, dtype=bool)
        if dense_map is not None and dense_map.shape != (desc.ntiles,) * 2:
            raise ConfigurationError(
                f"defer map must be {desc.ntiles} x {desc.ntiles}, "
                f"got {dense_map.shape}"
            )
        defer_from = problem if dense_map is not None or defer else None
        mat._assemble(
            problem.tile, n_workers, reuse, defer_from, dense_map, hints
        )
        return mat

    @classmethod
    def from_dense(
        cls,
        a: np.ndarray,
        tile_size: int,
        rule: TruncationRule,
        band_size: int = 1,
        *,
        n_workers: int | None = None,
    ) -> "BandTLRMatrix":
        """Tile + compress an explicit dense symmetric matrix (tests, demos)."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigurationError(f"matrix must be square, got {a.shape}")
        desc = TileDescriptor(a.shape[0], tile_size)
        mat = cls(desc=desc, band_size=band_size, rule=rule)
        mat._assemble(
            lambda i, j: a[desc.tile_slice(i), desc.tile_slice(j)].copy(), n_workers
        )
        return mat

    def _assemble(
        self, block_of, n_workers: int | None, reuse=None, defer_from=None,
        dense_map=None, hints=None,
    ) -> None:
        """Fill ``self.tiles`` over the lower triangle from ``block_of(i, j)``.

        On-band blocks are kept dense, off-band ones compressed; a tile
        found in ``reuse`` is taken as it is and its block never
        generated, and with ``defer_from`` (the problem) every other tile
        is left pending: a band tile to be born dense, an off-band one
        with the format decision of ``dense_map`` (``None``: by the rule,
        after its compression) and the rank hint of ``hints``.  With an active :mod:`repro.obs`
        observation the assembly is one ``"assemble"`` span (its
        ``tiles_deferred`` attribute counts the tiles left pending), every
        tile build is a nested span, and the post-assembly rank spectrum
        lands in the ``tile_rank`` histogram under ``stage="assembly"``.
        """
        # Lazy import: repro.runtime's package init pulls in modules that
        # import this one.
        from ..runtime.workpool import parallel_map

        reuse, hints = reuse or {}, hints or {}
        coords = list(self.desc.lower_tiles())

        def build(ij: tuple[int, int]) -> Tile:
            if ij in reuse:
                return reuse[ij]
            on_band = self.desc.on_band(*ij, self.band_size)
            if defer_from is not None:
                if on_band:
                    return PendingTile(
                        defer_from, *ij, self.desc.tile_shape(*ij), dense=True
                    )
                return PendingTile(
                    defer_from, *ij, self.desc.tile_shape(*ij),
                    self._storage_dtype(),
                    None if dense_map is None else bool(dense_map[ij]),
                    hint=hints.get(ij),
                )
            if on_band:
                return DenseTile(block_of(*ij))
            return self._compress(block_of(*ij))

        with obs.span(
            "assemble",
            "assembly",
            tiles=len(coords),
            band_size=self.band_size,
            workers=n_workers,
        ) as span:
            built = parallel_map(
                build, coords, n_workers, label="build_tile", category="assembly"
            )
            n_pending = sum(isinstance(t, PendingTile) for t in built)
            span.set(tiles_deferred=n_pending)
        for ij, tile in zip(coords, built):
            self.tiles[ij] = tile
        if obs.enabled():
            lowrank = 0
            for tile in built:
                if isinstance(tile, LowRankTile):
                    lowrank += 1
                    obs.histogram_observe("tile_rank", tile.rank, stage="assembly")
            dense = len(built) - lowrank - n_pending
            obs.counter_add("assembly_tiles", dense, format="dense")
            obs.counter_add("assembly_tiles", lowrank, format="lowrank")
            if n_pending:
                obs.counter_add("assembly_tiles", n_pending, format="pending")

    def generate(self, i: int, j: int) -> Tile:
        """Generate pending tile ``(i, j)`` and store what it is born as.

        Without an update: a band tile (and any tile decided dense) keeps
        its generated block, any other is compressed (undecided: then
        kept dense if the rule says so), so the tile is bitwise the eager
        ``from_problem``'s or the dense block.  The task that first
        writes a band or column-0 tile calls it; an off-band tile of
        column ``j >= 1`` is generated by its fused update instead.  A
        tile born compressed joins the ``tile_rank`` histogram's
        ``stage="assembly"`` spectrum, as an eagerly assembled one does.
        A pending tile's ``hint`` is its compression's ``rank_hint``.
        Returns the stored tile.
        """
        pending = self.tiles[(i, j)]
        block = pending.to_dense()
        tile = pending.born(
            lambda dtype: block.astype(dtype, copy=False),
            lambda cast: self._compress(cast, pending.hint),
        )
        self.tiles[(i, j)] = tile
        if isinstance(tile, LowRankTile) and obs.enabled():
            obs.histogram_observe("tile_rank", tile.rank, stage="assembly")
        return tile

    def realize(self) -> "BandTLRMatrix":
        """:meth:`generate` every pending tile, in place.

        Every tile is then bitwise the eager ``from_problem``'s or the
        dense block.  The branches of ``tlr_cholesky`` that ship or
        persist tiles call it first.  Returns ``self``.
        """
        for ij, tile in list(self.tiles.items()):
            if isinstance(tile, PendingTile):
                self.generate(*ij)
        return self

    def dense_map(self) -> np.ndarray:
        """``NT x NT`` boolean map of the tiles to be born dense next time.

        What a deferred assembly of the next, nearby problem with
        ``defer=`` this factor runs (ranks move little between MLE
        steps).  True where a stored tile is dense or where
        :func:`~repro.linalg.tiles.born_dense` prices its rank dense with
        the compression charged: a tile born low-rank next time is
        compressed again, hinted by its rank here, by the route
        :meth:`~repro.linalg.backends.AutoBackend.select` picks for that
        hint, in the storage dtype — so tile ``(i, j)`` stays low-rank
        only if that compression pays for itself over its TRSM, its SYRK
        and the ``NT - j - 2`` GEMMs that read it.
        """
        out = np.zeros((self.ntiles, self.ntiles), dtype=bool)
        backend, dtype = default_backend(), self._storage_dtype()
        for (i, j), tile in self.tiles.items():
            out[i, j] = born_dense(
                tile.rank, tile.shape, gemms=self.ntiles - j - 2,
                route=backend.select(tile.shape, self.rule, tile.rank),
                dtype=dtype,
            )
        return out

    def require_realized(self, reader: str) -> None:
        """Raise unless no tile is pending (for readers of tile data)."""
        if any(isinstance(t, PendingTile) for t in self.tiles.values()):
            raise ConfigurationError(
                f"{reader} reads tile data, but this matrix was assembled "
                "deferred and still holds pending tiles: call realize() "
                "first (tlr_cholesky consumes them itself)"
            )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def tile(self, i: int, j: int) -> Tile:
        """The stored tile ``(i, j)``, lower triangle only (``i >= j``)."""
        if i < j:
            raise ConfigurationError(
                f"only the lower triangle is stored, requested ({i}, {j})"
            )
        return self.tiles[(i, j)]

    def set_tile(self, i: int, j: int, tile: Tile) -> None:
        """Replace tile ``(i, j)`` (used by factorizations and the runtime)."""
        if i < j:
            raise ConfigurationError(
                f"only the lower triangle is stored, requested ({i}, {j})"
            )
        expected = self.desc.tile_shape(i, j)
        if tile.shape != expected:
            raise ConfigurationError(
                f"tile ({i}, {j}) must have shape {expected}, got {tile.shape}"
            )
        self.tiles[(i, j)] = tile

    def is_dense(self, i: int, j: int) -> bool:
        """True when tile ``(i, j)`` currently holds dense data."""
        return isinstance(self.tile(i, j), DenseTile)

    @property
    def ntiles(self) -> int:
        """Tile count per dimension."""
        return self.desc.ntiles

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.desc.n

    # ------------------------------------------------------------------
    # Rank & memory reporting (drives Figs. 1, 2b, 8)
    # ------------------------------------------------------------------
    def rank_grid(self) -> np.ndarray:
        """``NT x NT`` array of off-band tile ranks (−1 elsewhere).

        On-band (dense) tiles and the strict upper triangle are marked −1
        so rank statistics can mask them out, as the paper's heat maps do.
        """
        nt = self.ntiles
        grid = np.full((nt, nt), -1, dtype=np.int64)
        for (i, j), tile in self.tiles.items():
            if isinstance(tile, LowRankTile):
                grid[i, j] = tile.rank
        return grid

    def rank_stats(self) -> tuple[int, float, int]:
        """``(minrank, avgrank, maxrank)`` over compressed tiles.

        Returns ``(0, 0.0, 0)`` when no tile is compressed (dense layout).
        """
        ranks = [t.rank for t in self.tiles.values() if isinstance(t, LowRankTile)]
        if not ranks:
            return (0, 0.0, 0)
        return (int(min(ranks)), float(np.mean(ranks)), int(max(ranks)))

    def memory_elements(self, *, static_maxrank: int | None = None) -> int:
        """Total float64 elements stored in the lower triangle.

        With ``static_maxrank`` the compressed tiles are accounted at the
        PaRSEC-HiCMA-Prev static footprint ``2 * maxrank * b``; without it,
        at the dynamic exact footprint ``2 * k * b`` (PaRSEC-HiCMA-New).
        """
        total = 0
        for tile in self.tiles.values():
            if isinstance(tile, LowRankTile) and static_maxrank is not None:
                total += tile.memory_elements(maxrank=static_maxrank)
            else:
                total += tile.memory_elements()
        return total

    # ------------------------------------------------------------------
    # Band re-generation (auto-tuning pipeline step 3)
    # ------------------------------------------------------------------
    def with_band_size(
        self, band_size: int, problem: CovarianceProblem
    ) -> "BandTLRMatrix":
        """Re-target the matrix to a different ``band_size``.

        Tiles that enter the band are regenerated dense from ``problem``;
        tiles that leave the band are compressed from their dense data.
        Off-band compressed tiles are shared (not copied) — regeneration
        touches only ``O(NT * band_size)`` tiles, which is why Fig. 6d
        finds its cost negligible.
        """
        check_positive_int("band_size", band_size)
        if problem.n != self.n or problem.tile_size != self.desc.tile_size:
            raise ConfigurationError(
                "problem geometry does not match the matrix descriptor"
            )
        out = BandTLRMatrix(desc=self.desc, band_size=band_size, rule=self.rule)
        for (i, j), tile in self.tiles.items():
            now_banded = self.desc.on_band(i, j, band_size)
            if now_banded and not isinstance(tile, DenseTile):
                out.tiles[(i, j)] = DenseTile(problem.tile(i, j))
            elif not now_banded and isinstance(tile, DenseTile):
                out.tiles[(i, j)] = out._compress(tile.data)
            else:
                out.tiles[(i, j)] = tile
        return out

    # ------------------------------------------------------------------
    # Conversion / verification helpers
    # ------------------------------------------------------------------
    def to_dense(self, *, lower_only: bool = False) -> np.ndarray:
        """Materialize the full matrix (small problems / tests).

        With ``lower_only`` the strict upper triangle is left zero —
        useful for comparing Cholesky factors.
        """
        n = self.n
        out = np.zeros((n, n))
        for (i, j), tile in self.tiles.items():
            si, sj = self.desc.tile_slice(i), self.desc.tile_slice(j)
            block = tile.to_dense()
            out[si, sj] = block
            if i != j and not lower_only:
                out[sj, si] = block.T
        return out

    def copy(self) -> "BandTLRMatrix":
        """Deep copy (tiles included)."""
        out = BandTLRMatrix(
            desc=self.desc, band_size=self.band_size, rule=self.rule
        )
        out.tiles = {ij: t.copy() for ij, t in self.tiles.items()}
        return out

    def compression_error(self, reference: np.ndarray) -> float:
        """Relative Frobenius error against a dense reference matrix."""
        diff = self.to_dense() - reference
        return float(np.linalg.norm(diff) / np.linalg.norm(reference))
