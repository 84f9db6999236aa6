"""Core algorithms: TLR Cholesky, auto-tuning, solves, MLE, user API."""

from .api import TLRSolver
from .autotuner import (
    BandSizeDecision,
    SubdiagonalCost,
    autotune_matrix,
    band_candidates,
    subdiagonal_costs,
    subdiagonal_maxranks,
    tie_break_band,
    tune_band_size,
    walk_band_size,
)
from .factorize import FactorizationReport, tlr_cholesky
from .refine import RefinementResult, refined_solve, tlr_matvec
from .kriging import KrigingResult, krige
from .mle import LikelihoodEvaluator, MLEResult, fit_mle, log_likelihood
from .solve import backward_solve, forward_solve, log_det, solve_many, solve_spd
from .tile_size import candidate_tile_sizes, local_minimum_search, suggest_tile_size

__all__ = [
    "TLRSolver",
    "BandSizeDecision",
    "SubdiagonalCost",
    "tune_band_size",
    "autotune_matrix",
    "walk_band_size",
    "band_candidates",
    "tie_break_band",
    "subdiagonal_costs",
    "subdiagonal_maxranks",
    "FactorizationReport",
    "tlr_cholesky",
    "LikelihoodEvaluator",
    "MLEResult",
    "fit_mle",
    "log_likelihood",
    "krige",
    "KrigingResult",
    "tlr_matvec",
    "refined_solve",
    "RefinementResult",
    "forward_solve",
    "backward_solve",
    "solve_spd",
    "solve_many",
    "log_det",
    "suggest_tile_size",
    "candidate_tile_sizes",
    "local_minimum_search",
]
