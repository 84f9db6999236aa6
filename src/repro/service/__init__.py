"""Solver service: factorize-once/solve-many serving (``repro.service``).

The production consumption pattern for the paper's workload — 3D
geospatial covariance Cholesky — is many solves against few
factorizations (the Matérn-estimation traffic of PAPERS.md 2402.09356).
This package is that serving layer:

* :mod:`~repro.service.cache` — :class:`FactorCache`: factors keyed by
  (geometry hash, kernel, θ, ε, band, rank cap), LRU-by-bytes
  eviction, single-flight builds, checkpoint warm-start;
* :mod:`~repro.service.database` — :class:`ServiceDatabase`: request
  lifecycle bookkeeping with update handlers and atomic bounded
  admission (the SNIPPETS #2/#3 scheduler-database idiom);
* :mod:`~repro.service.server` — :class:`SolverService`: sharded worker
  threads, multi-RHS batching via stacked
  :func:`~repro.core.solve.solve_many` calls, deadlines, backpressure;
* :mod:`~repro.service.loadgen` — closed-loop load generator reporting
  p50/p95/p99 serving latency.

Quickstart::

    from repro.service import ServiceConfig, SolverService

    with SolverService(ServiceConfig(n_workers=2)) as svc:
        session = svc.session(problem, accuracy=1e-6)
        x = session.solve(rhs)

CLI: ``python -m repro serve`` (demo traffic + report) and
``python -m repro bench-service`` (batched-vs-solo load tool).
"""

from .cache import (
    CacheEntry,
    CacheStats,
    FactorCache,
    FactorKey,
    FactorRecipe,
    geometry_hash,
)
from .database import EVENTS, ServiceDatabase
from .loadgen import LoadReport, run_load
from .server import (
    ServiceConfig,
    ServiceSession,
    ServiceStats,
    SolverService,
    SolveTicket,
    percentiles,
)

__all__ = [
    "geometry_hash",
    "FactorKey",
    "FactorRecipe",
    "CacheEntry",
    "CacheStats",
    "FactorCache",
    "EVENTS",
    "ServiceDatabase",
    "ServiceConfig",
    "SolverService",
    "ServiceSession",
    "ServiceStats",
    "SolveTicket",
    "percentiles",
    "LoadReport",
    "run_load",
]
