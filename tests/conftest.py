"""Shared fixtures: small covariance problems and their dense references.

Problem generation and dense materialization dominate test runtime, so the
standard small problems are session-scoped.  Tests must not mutate these
fixtures — factorization tests copy the matrices they modify.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time

# One BLAS thread per worker: the suite runs up to four workers on hosts
# with two cores, and an unpinned OpenBLAS oversubscribes them.  The
# wall-clock gates of tests/test_tune.py then judge bimodal timings: with
# the fused graph (few, long low-rank GEMM tasks per class) they failed
# 6 of 16 unpinned module runs here against 0 of 16 pinned.  Only
# effective before numpy loads.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from repro import TruncationRule, st_3d_exp_problem
from repro.linalg import AutoBackend
from repro.matrix import BandTLRMatrix


@pytest.fixture(autouse=True)
def _no_leaked_threads_or_processes():
    """Fail a test that leaves a thread or a child process running.

    A thread the test started gets one second, in all, to finish; a
    child process must be gone when the test returns.
    """
    before = set(threading.enumerate())
    yield
    started = [t for t in threading.enumerate() if t not in before]
    deadline = time.monotonic() + 1.0
    for thread in started:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = [t.name for t in started if t.is_alive()]
    children = [p.name for p in multiprocessing.active_children()]
    if alive or children:
        pytest.fail(
            f"test leaked threads {alive} and child processes {children}"
        )


def pin_route(monkeypatch, route: str) -> None:
    """Pin the compressor's per-tile choice to one of its two routes.

    ``"svd"`` sends every tile to the exact SVD, ``"rsvd"`` to the
    sampler (with the sampler's own exact fallback), and ``"auto"`` leaves
    :meth:`AutoBackend.select`'s rule alone.  Suites that hold a property
    for every route pin each one in turn.
    """
    if route != "auto":
        monkeypatch.setattr(
            AutoBackend, "select",
            lambda self, shape, rule, rank_hint=None: route,
        )


@pytest.fixture(scope="session")
def small_problem():
    """A 512-point st-3D-exp problem with 64-point tiles (NT = 8)."""
    return st_3d_exp_problem(512, 64, seed=42)


@pytest.fixture(scope="session")
def small_dense(small_problem):
    """Dense covariance of :func:`small_problem`."""
    return small_problem.dense()


@pytest.fixture(scope="session")
def medium_problem():
    """A 1500-point st-3D-exp problem with 125-point tiles (NT = 12)."""
    return st_3d_exp_problem(1500, 125, seed=7)


@pytest.fixture(scope="session")
def medium_dense(medium_problem):
    return medium_problem.dense()


@pytest.fixture(scope="session")
def rule8():
    """The paper's default accuracy threshold, 1e-8."""
    return TruncationRule(eps=1e-8)


@pytest.fixture()
def small_tlr(small_problem, rule8):
    """Fresh band-1 compressed matrix of the small problem (mutable)."""
    return BandTLRMatrix.from_problem(small_problem, rule8, band_size=1)


@pytest.fixture()
def rng():
    """Fresh, pinned generator per test.

    Function-scoped on purpose: a shared session-scope generator makes
    each test's random draws depend on which tests ran before it, so the
    suite only passes in one ordering.  A fresh ``default_rng(2021)``
    per test keeps every test's draws identical under ``-x --lf``,
    random ordering, and single-test invocation alike.
    """
    return np.random.default_rng(2021)
