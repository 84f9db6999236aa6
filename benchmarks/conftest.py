"""Shared infrastructure for the paper-reproduction benchmarks.

Every ``bench_*`` module regenerates one table or figure of the paper at
reduced scale (see DESIGN.md's experiment index).  Conventions:

* each bench prints the same rows/series the paper reports (via
  ``repro.analysis.format_table``) and writes a CSV under
  ``benchmarks/results/``;
* the ``benchmark`` fixture times one representative unit of work per
  bench so ``pytest benchmarks/ --benchmark-only`` produces a meaningful
  timing table; sweeps run outside the timer;
* problem sizes are scaled so the whole suite completes in minutes on a
  laptop; the *shape* of each result (who wins, crossovers, trends) is the
  reproduction target, not absolute seconds.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import TruncationRule, st_3d_exp_problem
from repro.matrix import BandTLRMatrix

RESULTS_DIR = Path(__file__).parent / "results"

#: The scaled stand-ins for the paper's two reference matrix sizes
#: (N = 1.08M and 2.16M with b = 2400 -> NT = 450/900).  We keep the
#: b = sqrt(N) relationship at laptop scale.  CI's bench-smoke job
#: shrinks them further via the REPRO_BENCH_* environment knobs; the
#: reproduction assertions are written against shape, not scale, and
#: hold at both sizes.
SCALED_N_SMALL = int(os.environ.get("REPRO_BENCH_N_SMALL", "7200"))
SCALED_B_SMALL = int(os.environ.get("REPRO_BENCH_B_SMALL", "450"))  # NT = 16
SCALED_N_LARGE = 14400
SCALED_B_LARGE = 600  # NT = 24


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def perf_timer():
    """Median of ``repeats`` timed calls; ``setup()`` runs untimed before
    each one and its result is passed to ``fn``."""
    def timer(fn, *, repeats=3, setup=None):
        times = []
        for _ in range(repeats):
            args = () if setup is None else (setup(),)
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        return SimpleNamespace(median_s=statistics.median(times))
    return timer


@pytest.fixture(scope="session")
def rule8() -> TruncationRule:
    return TruncationRule(eps=1e-8)


@pytest.fixture(scope="session")
def problem_small():
    """Scaled stand-in for the paper's N = 1.08M, b = 2700 workload."""
    return st_3d_exp_problem(SCALED_N_SMALL, SCALED_B_SMALL, seed=2021)


@pytest.fixture(scope="session")
def matrix_small(problem_small, rule8):
    """Band-1 compression of the small workload (reused across benches)."""
    return BandTLRMatrix.from_problem(problem_small, rule8, band_size=1)


@pytest.fixture(scope="session")
def rank_model_small(matrix_small):
    """Rank model fitted from the measured small-workload compression."""
    from repro.analysis import RankModel

    return RankModel.fit(matrix_small.rank_grid(), matrix_small.desc.tile_size)
