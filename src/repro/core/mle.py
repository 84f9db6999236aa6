r"""Maximum Likelihood Estimation on TLR-factorized covariance matrices.

Equation (1) of the paper:

.. math::

    \ell(\theta) = -\frac{n}{2}\log(2\pi) - \frac{1}{2}\log|\Sigma(\theta)|
                   - \frac{1}{2} Z^\top \Sigma(\theta)^{-1} Z.

Each likelihood evaluation assembles the covariance at the candidate
``θ``, compresses it, runs the TLR Cholesky, and reads off
``log|Σ| = 2 Σ log L_ii`` and ``Z^T Σ^{-1} Z = ||L^{-1} Z||²`` — exactly
the pipeline the paper accelerates (the factorization *is* the MLE inner
loop).  Nothing here reads the unfactorized matrix, so the assembly is
deferred (``from_problem(defer=...)``): each off-band tile is generated
at its fused update and born in its format there — compressed once, after
the update, or kept dense.  The first evaluation decides each format by
:func:`~repro.linalg.tiles.keep_dense` on the rank the tile's compression
finds; every later one reads it from the previous factor's
:meth:`~repro.matrix.BandTLRMatrix.dense_map` (tile ranks move little
between nearby ``θ``) and skips the compression of every tile it marks
dense.  The optimizer is a Nelder-Mead search over log-parameters, the
standard derivative-free choice for the 2-3 dimensional Matérn problem.

The factorization runs on the in-process execution core
(:mod:`repro.runtime.executor`) at
:func:`~repro.runtime.workpool.default_workers` workers — cores ÷ BLAS
threads, so a host whose BLAS is pinned to one thread runs one worker
per core and one whose BLAS already spans every core runs one.  That is
a rule, not an option: the factor, hence the likelihood, is bitwise the
same at every worker count, and a candidate that is not
numerically SPD scores −inf on any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from ..linalg.compression import TruncationRule
from ..statistics.matern import MaternParams
from ..statistics.problem import CovarianceProblem
from ..utils.exceptions import ConfigurationError, NotPositiveDefiniteError
from ..utils.validation import check_matrix
from ..matrix.tlr_matrix import BandTLRMatrix
from ..runtime.workpool import default_workers
from .factorize import tlr_cholesky
from .solve import forward_solve, log_det

__all__ = ["log_likelihood", "LikelihoodEvaluator", "MLEResult", "fit_mle"]

_LOG_2PI = float(np.log(2.0 * np.pi))


def log_likelihood(factor: BandTLRMatrix, z: np.ndarray) -> float:
    """Evaluate Eq. (1) given an already-factorized covariance.

    Parameters
    ----------
    factor:
        The matrix after :func:`repro.core.factorize.tlr_cholesky`.
    z:
        Measurement vector of length ``n``.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] != factor.n:
        raise ConfigurationError(
            f"z must be a length-{factor.n} vector, got shape {z.shape}"
        )
    y = forward_solve(factor, z)
    quad = float(y @ y)
    return -0.5 * (factor.n * _LOG_2PI + log_det(factor) + quad)


@dataclass
class LikelihoodEvaluator:
    """Re-evaluates the likelihood at candidate Matérn parameters.

    Attributes
    ----------
    points:
        Spatial locations, in the order the covariance is tiled (the
        ``points`` of an ``st_3d_exp_problem`` are Morton-ordered; the
        evaluator does not reorder them).
    z:
        Measurement vector.
    tile_size:
        Tile size ``b`` for the TLR machinery.
    rule:
        Compression rule (the accuracy threshold the MLE runs at).
    band_size:
        Dense band width used for every evaluation.
    nugget:
        Diagonal regularization added at each candidate.
    smoothness:
        Fixed smoothness :math:`\\theta_3` (the paper estimates range and
        variance at fixed smoothness 0.5).
    evaluations:
        Log of ``(theta1, theta2, loglik)`` triples, for diagnostics.
    """

    points: np.ndarray
    z: np.ndarray
    tile_size: int
    rule: TruncationRule = field(default_factory=TruncationRule)
    band_size: int = 1
    nugget: float = 1e-6
    smoothness: float = 0.5
    evaluations: list[tuple[float, float, float]] = field(default_factory=list)
    #: The last factor's dense/low-rank map (``None`` before the first).
    _dense_map: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        # Checked once, here: a bad input would otherwise cost a full
        # assemble + factorize before it shows (or return nan silently).
        self.points = check_matrix("points", self.points)
        self.z = np.asarray(self.z, dtype=np.float64)
        if self.z.shape != (len(self.points),):
            raise ConfigurationError(
                f"z must be a length-{len(self.points)} vector, got shape "
                f"{self.z.shape}"
            )
        if not (np.isfinite(self.points).all() and np.isfinite(self.z).all()):
            raise ConfigurationError("points and z must be finite (no NaN/inf)")

    def __call__(self, variance: float, correlation_length: float) -> float:
        """Log-likelihood at ``(θ1, θ2)``; −inf for infeasible candidates.

        Assembles the candidate's covariance deferred, factorizes it on
        the execution core at :func:`~repro.runtime.workpool.default_workers`
        workers (bitwise the same factor at any count), and
        evaluates Eq. (1).  Infeasible means invalid Matérn parameters, or
        a covariance whose factorization raises
        :class:`~repro.utils.exceptions.NotPositiveDefiniteError` — from
        whichever worker ran the failing POTRF.
        """
        try:
            params = MaternParams(
                variance=variance,
                correlation_length=correlation_length,
                smoothness=self.smoothness,
            )
        except ConfigurationError:
            return float("-inf")
        problem = CovarianceProblem(
            points=self.points,
            params=params,
            tile_size=self.tile_size,
            nugget=self.nugget,
        )
        matrix = BandTLRMatrix.from_problem(
            problem, self.rule, self.band_size,
            defer=True if self._dense_map is None else self._dense_map,
        )
        try:
            tlr_cholesky(matrix, n_workers=default_workers())
        except NotPositiveDefiniteError:
            return float("-inf")
        self._dense_map = matrix.dense_map()
        ll = log_likelihood(matrix, self.z)
        self.evaluations.append((variance, correlation_length, ll))
        return ll


@dataclass(frozen=True)
class MLEResult:
    """Outcome of the MLE optimization.

    Attributes
    ----------
    variance, correlation_length:
        The estimated :math:`\\hat\\theta_1, \\hat\\theta_2`.
    log_likelihood:
        Likelihood at the optimum.
    n_evaluations:
        Covariance factorizations performed.
    converged:
        Optimizer's success flag.
    """

    variance: float
    correlation_length: float
    log_likelihood: float
    n_evaluations: int
    converged: bool


def fit_mle(
    evaluator: LikelihoodEvaluator,
    *,
    initial: tuple[float, float] = (1.0, 0.1),
    xatol: float = 1e-3,
    fatol: float = 1e-4,
    max_iterations: int = 200,
) -> MLEResult:
    """Maximize the likelihood over ``(θ1, θ2)`` with Nelder-Mead.

    The search runs in log-parameter space, which keeps both parameters
    positive and equalizes their scales.
    """
    if initial[0] <= 0 or initial[1] <= 0:
        raise ConfigurationError("initial parameters must be positive")

    def objective(log_theta: np.ndarray) -> float:
        t1, t2 = float(np.exp(log_theta[0])), float(np.exp(log_theta[1]))
        return -evaluator(t1, t2)

    res = optimize.minimize(
        objective,
        x0=np.log(np.asarray(initial, dtype=np.float64)),
        method="Nelder-Mead",
        options={
            "xatol": xatol,
            "fatol": fatol,
            "maxiter": max_iterations,
        },
    )
    t1, t2 = np.exp(res.x)
    return MLEResult(
        variance=float(t1),
        correlation_length=float(t2),
        log_likelihood=float(-res.fun),
        n_evaluations=len(evaluator.evaluations),
        converged=bool(res.success),
    )
