"""repro — BAND-DENSE-TLR Cholesky with a rank-aware task runtime.

A from-scratch Python reproduction of *"Leveraging PaRSEC Runtime Support
to Tackle Challenging 3D Data-Sparse Matrix Problems"* (Cao, Pei, Akbudak,
Bosilca, Ltaief, Keyes, Dongarra — IPDPS 2021): tile low-rank Cholesky
factorization of 3D Matérn covariance matrices, with the paper's four
runtime contributions — BAND-DENSE-TLR dynamic data-structure management
(with the Algorithm-1 BAND_SIZE auto-tuner), dynamic memory designation,
hybrid rank-aware data distribution, and recursive dense kernels — plus a
discrete-event simulator standing in for the distributed machine.

Quick start::

    from repro import TLRSolver, st_3d_exp_problem

    problem = st_3d_exp_problem(n=4096, tile_size=256)
    solver = TLRSolver.from_problem(problem, accuracy=1e-8)
    solver.factorize()
    x = solver.solve(rhs)

Sub-packages:

* :mod:`repro.geometry`    — point clouds, Morton ordering, distances
* :mod:`repro.statistics`  — Matérn kernels, covariance problems (STARS-H)
* :mod:`repro.linalg`      — tiles, compression, HCORE kernels, flop models
* :mod:`repro.matrix`      — BAND-DENSE-TLR containers, memory accounting
* :mod:`repro.distribution`— 2D/1D block-cyclic and hybrid band layouts
* :mod:`repro.runtime`     — task graphs, executor, machine simulator
* :mod:`repro.core`        — factorization, auto-tuner, solves, MLE, API
* :mod:`repro.analysis`    — rank/occupancy/speedup reporting
"""

from .core.api import TLRSolver
from .linalg.compression import TruncationRule
from .statistics.matern import ST_3D_EXP, MaternParams
from .statistics.problem import CovarianceProblem, st_3d_exp_problem

__version__ = "1.0.0"

__all__ = [
    "TLRSolver",
    "TruncationRule",
    "MaternParams",
    "ST_3D_EXP",
    "CovarianceProblem",
    "st_3d_exp_problem",
    "__version__",
]
