"""Covariance matrix problems (the STARS-H substitute).

A :class:`CovarianceProblem` couples a set of spatial locations with a
Matérn kernel and exposes *tile-wise lazy assembly*: the full n-by-n
covariance matrix is never materialized unless explicitly requested.  The
TLR machinery asks for one ``b x b`` tile at a time, generates it, and
immediately compresses it — exactly the STARS-H -> HiCMA pipeline of the
paper, which is what lets problem sizes exceed dense-storage limits.

A small additive nugget (diagonal regularization) keeps the matrix
numerically positive definite; the exponential kernel on distinct points
is positive definite in exact arithmetic, but compression perturbs tiles
by up to the accuracy threshold, so the nugget must dominate the
compression error for the factorization to succeed (Section VIII-A pairs
eps = 1e-8 with solution errors ~1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry.distance import block_distances
from ..geometry.grids import generate_locations
from ..utils.exceptions import ConfigurationError, ProblemError
from ..utils.validation import check_finite, check_positive_int
from .matern import ST_3D_EXP, MaternParams, matern

__all__ = ["CovarianceProblem", "st_3d_exp_problem", "st_2d_exp_problem"]


@dataclass
class CovarianceProblem:
    """A data-sparse symmetric positive-definite covariance problem.

    Attributes
    ----------
    points:
        Locations, shape ``(n, d)``, already ordered (Morton order for the
        paper's pipeline).
    params:
        Matérn kernel parameters.
    tile_size:
        Tile dimension ``b``.  The last tile in each direction may be
        smaller when ``b`` does not divide ``n``.
    nugget:
        Additive diagonal term ensuring positive definiteness against
        compression error.
    """

    points: np.ndarray
    params: MaternParams = field(default_factory=lambda: ST_3D_EXP)
    tile_size: int = 256
    nugget: float = 1e-6

    def __post_init__(self) -> None:
        self.points = check_finite("points", self.points)
        if self.points.ndim != 2:
            raise ConfigurationError(
                f"points must be (n, d), got shape {self.points.shape}"
            )
        self.tile_size = check_positive_int("tile_size", self.tile_size)
        check_finite("nugget", self.nugget)  # NaN < 0 is False
        if self.nugget < 0:
            raise ConfigurationError(f"nugget must be >= 0, got {self.nugget}")
        if self.nugget == 0:
            # Two equal rows give two equal covariance rows: singular.
            _, first, inv = np.unique(
                self.points, axis=0, return_index=True, return_inverse=True
            )
            owner = first[inv.reshape(-1)]
            dup = np.flatnonzero(owner != np.arange(self.n))
            if dup.size:
                j = int(dup[0])
                raise ConfigurationError(
                    f"points {int(owner[j])} and {j} coincide: with nugget 0 "
                    "the covariance is singular (give a nugget > 0)"
                )
        if self.tile_size > self.n:
            raise ConfigurationError(
                f"tile_size {self.tile_size} exceeds problem size {self.n}"
            )

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of locations (matrix dimension)."""
        return self.points.shape[0]

    @property
    def ndim(self) -> int:
        """Spatial dimension of the locations."""
        return self.points.shape[1]

    @property
    def ntiles(self) -> int:
        """Number of tile rows/columns ``NT = ceil(n / b)``."""
        return -(-self.n // self.tile_size)

    def tile_rows(self, i: int) -> slice:
        """Global index range covered by tile row ``i``."""
        if not (0 <= i < self.ntiles):
            raise ProblemError(f"tile index {i} out of range [0, {self.ntiles})")
        lo = i * self.tile_size
        return slice(lo, min(lo + self.tile_size, self.n))

    def tile_shape(self, i: int, j: int) -> tuple[int, int]:
        """Shape of tile ``(i, j)``."""
        ri, rj = self.tile_rows(i), self.tile_rows(j)
        return (ri.stop - ri.start, rj.stop - rj.start)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def tile(self, i: int, j: int, out: np.ndarray | None = None) -> np.ndarray:
        """Generate the dense ``(i, j)`` covariance tile.

        Diagonal tiles (``i == j``) include the nugget term.  The tile is
        evaluated in one buffer — distances, then the kernel in place —
        which is ``out`` when given (a C-contiguous float64 array of the
        tile's shape, e.g. a previous factor's tile) and a new array
        otherwise; the bits are the same either way.
        """
        ri, rj = self.tile_rows(i), self.tile_rows(j)
        d = block_distances(self.points[ri], self.points[rj], out=out)
        if i == j:
            # Self-distances are exactly zero; the GEMM-based distance
            # formula leaves ~sqrt(eps) round-off there.
            np.fill_diagonal(d, 0.0)
        tile = matern(d, self.params, out=d)
        if i == j and self.nugget > 0.0:
            tile[np.diag_indices_from(tile)] += self.nugget
        return tile

    def dense(self) -> np.ndarray:
        """Materialize the full covariance matrix (small problems only).

        Guarded at 20k x 20k (~3.2 GB float64) to prevent accidental OOM.
        """
        if self.n > 20_000:
            raise ProblemError(
                f"refusing to materialize a dense {self.n}x{self.n} matrix; "
                "use tile-wise assembly instead"
            )
        d = block_distances(self.points, self.points)
        np.fill_diagonal(d, 0.0)
        cov = matern(d, self.params)
        if self.nugget > 0.0:
            cov[np.diag_indices_from(cov)] += self.nugget
        return cov

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_measurements(
        self, seed: int | None = 0, *, n_samples: int = 1
    ) -> np.ndarray:
        """Draw measurement vector(s) ``z ~ N(0, Sigma)`` by exact sampling.

        Computes a dense Cholesky factor and returns ``L @ w`` with
        ``w ~ N(0, I)``; intended for the reduced-scale MLE experiments
        (the paper's climate measurement vectors are proprietary — this is
        the documented substitution: exact draws from the same model).

        Returns
        -------
        numpy.ndarray
            Shape ``(n,)`` when ``n_samples == 1``, else ``(n, n_samples)``.
        """
        import scipy.linalg as sla

        cov = self.dense()
        chol = sla.cholesky(cov, lower=True)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((self.n, n_samples))
        z = chol @ w
        return z[:, 0] if n_samples == 1 else z


def st_3d_exp_problem(
    n: int,
    tile_size: int,
    *,
    params: MaternParams = ST_3D_EXP,
    nugget: float = 1e-6,
    seed: int | None = 0,
    layout: str = "perturbed-grid",
) -> CovarianceProblem:
    """Build the paper's st-3D-exp benchmark problem at size ``n``.

    Generates ``n`` Morton-ordered locations in the unit cube and attaches
    the exponential Matérn kernel with :math:`\\theta = (1, 0.1, 0.5)`.
    """
    pts = generate_locations(n, ndim=3, layout=layout, seed=seed, morton=True)
    return CovarianceProblem(
        points=pts, params=params, tile_size=tile_size, nugget=nugget
    )


def st_2d_exp_problem(
    n: int,
    tile_size: int,
    *,
    params: MaternParams = ST_3D_EXP,
    nugget: float = 1e-6,
    seed: int | None = 0,
    layout: str = "perturbed-grid",
) -> CovarianceProblem:
    """The 2D analogue of the st-3D-exp problem.

    The paper repeatedly contrasts 2D and 3D behaviour: 2D exponential
    kernels yield much lower off-diagonal ranks (weak-admissibility
    territory) so the BAND-DENSE-TLR machinery degenerates gracefully to
    BAND_SIZE = 1 — "similar to 2D applications" (Section VIII-G).  This
    factory exists so that contrast can be measured, not assumed.
    """
    pts = generate_locations(n, ndim=2, layout=layout, seed=seed, morton=True)
    return CovarianceProblem(
        points=pts, params=params, tile_size=tile_size, nugget=nugget
    )
