"""High-level user API: compress → auto-tune → factorize → solve.

:class:`TLRSolver` packages the whole PaRSEC-HiCMA-New pipeline behind the
smallest possible surface::

    from repro import TLRSolver, st_3d_exp_problem

    problem = st_3d_exp_problem(n=4096, tile_size=256)
    solver = TLRSolver.from_problem(problem, accuracy=1e-8)   # auto-tunes BAND_SIZE
    solver.factorize()
    x = solver.solve(b)
    ll = solver.log_likelihood(z)

Every stage is also available à la carte through the sub-modules for users
who need the pieces (benchmarks do).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..linalg.compression import TruncationRule
from ..matrix.memory import MemoryReport, footprint_report
from ..matrix.tlr_matrix import BandTLRMatrix
from ..statistics.problem import CovarianceProblem
from ..utils.exceptions import ConfigurationError
from ..utils.validation import check_band_size
from .autotuner import BandSizeDecision, autotune_matrix
from .factorize import FactorizationReport, tlr_cholesky
from .mle import log_likelihood
from .solve import log_det, solve_spd

__all__ = ["TLRSolver"]


@dataclass
class TLRSolver:
    """End-to-end TLR Cholesky solver with BAND_SIZE auto-tuning.

    Attributes
    ----------
    matrix:
        The compressed (and, after :meth:`factorize`, factorized) matrix.
    problem:
        The generating covariance problem (needed for band regeneration).
    decision:
        Auto-tuner outcome, or ``None`` when a band size was forced.
    report:
        Factorization statistics once :meth:`factorize` has run.
    """

    matrix: BandTLRMatrix
    problem: CovarianceProblem | None = None
    decision: BandSizeDecision | None = None
    report: FactorizationReport | None = None
    _factorized: bool = field(default=False, repr=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_problem(
        cls,
        problem: CovarianceProblem,
        accuracy: float = 1e-8,
        *,
        band_size: int | str = "auto",
        fluctuation: float = 0.67,
        maxrank: int | None = None,
        compression=None,
        n_workers: int | None = None,
    ) -> "TLRSolver":
        """Compress a covariance problem, auto-tuning the dense band.

        Parameters
        ----------
        problem:
            The covariance problem to solve.
        accuracy:
            Compression threshold ε (the paper's experiments use 1e-8
            down to 1e-3).
        band_size:
            ``"auto"`` runs Algorithm 1 during assembly
            (:func:`~repro.core.autotuner.autotune_matrix`: the matrix
            of the paper's generate at band 1 → tune → regenerate
            pipeline, without compressing the band it discards); an
            integer forces that band width.
        fluctuation:
            Auto-tuner densification threshold (paper window [0.67, 1]).
        maxrank:
            Optional hard rank cap for compressions (HiCMA-Prev's static
            descriptor uses ``b/2``); ``None`` = uncapped dynamic ranks.
        compression:
            Compression backend: ``None`` (the registry default of
            :mod:`repro.linalg.backends`, ``"auto"``: sampled or exact
            per tile by size, ε and predicted rank), ``"svd"`` (exact),
            ``"rsvd"`` (adaptive randomized), or a
            :class:`~repro.linalg.backends.CompressionBackend` instance.
            Remembered by the matrix, so factorization recompressions use
            the same numerics.
        n_workers:
            Thread count for *assembly* (tile generation + compression);
            independent of the worker count later passed to
            :meth:`factorize`.  Results are bitwise identical either way.
        """
        rule = TruncationRule(eps=accuracy, maxrank=maxrank)
        band_size = check_band_size(band_size)
        with obs.span(
            "from_problem",
            "phase",
            n=problem.n,
            tile_size=problem.tile_size,
            accuracy=accuracy,
            band_size=band_size,
        ):
            how = dict(backend=compression, n_workers=n_workers)
            if band_size == "auto":
                matrix, decision = autotune_matrix(
                    problem, rule, fluctuation=fluctuation, **how
                )
            else:
                matrix = BandTLRMatrix.from_problem(problem, rule, band_size, **how)
                decision = None
            return cls(matrix=matrix, problem=problem, decision=decision)

    # ------------------------------------------------------------------
    @property
    def band_size(self) -> int:
        """The dense band width in effect."""
        return self.matrix.band_size

    @property
    def is_factorized(self) -> bool:
        return self._factorized

    def factorize(
        self,
        *,
        n_workers: int | None = None,
        executor=None,
        n_ranks: int | None = None,
        faults=None,
        recovery=None,
        checkpoint=None,
        resume: bool = False,
    ) -> FactorizationReport:
        """Run the BAND-DENSE-TLR Cholesky in place.

        With ``n_workers`` the factorization executes on the
        dependency-driven execution core (one worker inline, more on
        threads; same factor, bitwise, for any worker count); without
        it, the sequential reference loops run.
        ``executor``/``n_ranks`` select a backend explicitly instead —
        e.g. ``executor="processes", n_ranks=4`` runs the distributed
        multi-process executor with tiles placed by the hybrid band
        distribution (again the same factor, bitwise, at any rank
        count); see :func:`~repro.core.factorize.tlr_cholesky`.

        ``faults``/``recovery``/``checkpoint``/``resume`` pass through to
        :func:`~repro.core.factorize.tlr_cholesky`'s resilience engine:
        fault injection (chaos testing), the retry/rollback recovery
        policy, and checkpoint/restart of the completed-panel frontier.
        """
        if self._factorized:
            raise ConfigurationError("matrix is already factorized")
        self.report = tlr_cholesky(
            self.matrix,
            n_workers=n_workers,
            executor=executor,
            n_ranks=n_ranks,
            faults=faults,
            recovery=recovery,
            checkpoint=checkpoint,
            resume=resume,
        )
        self._factorized = True
        return self.report

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``Σ x = rhs`` (requires :meth:`factorize` first)."""
        self._require_factor()
        with obs.span("solve", "phase"):
            return solve_spd(self.matrix, rhs)

    def log_likelihood(self, z: np.ndarray) -> float:
        """Gaussian log-likelihood of measurements ``z`` (Eq. 1)."""
        self._require_factor()
        with obs.span("log_likelihood", "phase"):
            return log_likelihood(self.matrix, z)

    def log_det(self) -> float:
        """``log|Σ|`` from the factor's diagonal."""
        self._require_factor()
        return log_det(self.matrix)

    def memory_report(self, maxrank: int | None = None) -> MemoryReport:
        """Static-vs-dynamic footprint comparison (Fig. 8)."""
        return footprint_report(self.matrix, maxrank=maxrank)

    def factor_key(self):
        """This solver's factor identity in the solver service's cache.

        The :class:`~repro.service.cache.FactorKey` under which
        :meth:`SolverService.register_solver
        <repro.service.server.SolverService.register_solver>` would
        install this factor: geometry hash, kernel θ, ε (which also
        fixes the factor's precision), band width and rank cap.
        """
        if self.problem is None:
            raise ConfigurationError(
                "factor_key needs the generating problem (solver.problem)"
            )
        from ..service.cache import FactorKey

        return FactorKey.from_problem(
            self.problem,
            accuracy=self.matrix.rule.eps,
            band_size=self.matrix.band_size,
            maxrank=self.matrix.rule.maxrank,
        )

    def _require_factor(self) -> None:
        if not self._factorized:
            raise ConfigurationError(
                "call factorize() before solving or evaluating likelihoods"
            )
