"""A flat thread pool for embarrassingly-parallel tile work.

The Cholesky executor (:mod:`repro.runtime.executor`) needs a
dependency-driven pool; matrix *assembly* does not — every tile is
generated and compressed independently.  :func:`parallel_map` covers that
case with the same hand-rolled thread style as the PR-1 executor: worker
threads pull item indices from a shared cursor, results land in item
order, and the first worker exception is re-raised in the caller.

NumPy/SciPy release the GIL inside BLAS/LAPACK, so tile generation and
SVD/rsvd compression genuinely overlap across threads.  Determinism is
the caller's job: work submitted here must not depend on execution order
(the compressor draws no random numbers per call: its Gaussians come
from a fixed pool).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from collections.abc import Callable, Sequence

import numpy as np
import scipy

from .. import obs
from ..utils.exceptions import TransientFaultError

__all__ = ["blas_threads", "default_workers", "parallel_map"]

#: The OpenBLAS each package bundles, and the symbol that reports its
#: thread count.
_BUNDLED_BLAS = (
    (np, "scipy_openblas_get_num_threads64_"),
    (scipy, "scipy_openblas_get_num_threads"),
)


@functools.cache
def _blas_thread_getters() -> tuple:
    """The thread-count getters of the bundled OpenBLAS libraries (the
    process loaded them already; ``CDLL`` returns the same handle)."""
    getters = []
    for package, symbol in _BUNDLED_BLAS:
        site = os.path.dirname(os.path.dirname(package.__file__))
        for path in glob.glob(
            os.path.join(site, f"{package.__name__}.libs", "*openblas*")
        ):
            try:
                get = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            get.restype = ctypes.c_int
            getters.append(get)
    return tuple(getters)


def blas_threads() -> int | None:
    """Threads a BLAS call runs on: the most that numpy's and scipy's
    bundled OpenBLAS libraries report, or ``None`` when neither can be
    read (another BLAS, or none bundled)."""
    counts = [get() for get in _blas_thread_getters()]
    return max(counts) if counts else None


def default_workers() -> int:
    """The worker count of the execution core when none is given, and of
    every MLE step: ``cores ÷ BLAS threads``, at least 1, so workers ×
    BLAS threads never exceeds the cores this process may run on.  A BLAS whose thread count cannot be
    read is taken to use every core (one worker)."""
    cores = len(os.sched_getaffinity(0))
    per_call = blas_threads() or cores
    return max(1, cores // per_call)


def parallel_map(
    fn: Callable,
    items: Sequence,
    n_workers: int | None = None,
    *,
    label: str | None = None,
    category: str = "workpool",
    retries: int = 0,
):
    """Apply ``fn`` to every item on ``n_workers`` threads, keeping order.

    ``n_workers`` of ``None``, 0 or 1 runs serially in the calling thread
    (no pool overhead, identical results).  If any call raises, the first
    exception (in item order) propagates and remaining items may be
    skipped.

    With ``label`` and an active :mod:`repro.obs` observation, every item
    is recorded as one span named ``label`` under ``category`` (carrying
    the item index), and the pool's width and item count land in the
    metrics registry — the workpool's occupancy surface.

    ``retries`` re-runs an item that raised
    :class:`~repro.utils.exceptions.TransientFaultError` up to that many
    extra times (the flat-pool counterpart of the graph executors'
    recovery engine); other exceptions propagate immediately.
    """
    items = list(items)
    if label is not None and obs.enabled():
        obs.counter_add("workpool_items", len(items), label=label)
        inner = fn

        def call(idx: int, item):
            with obs.span(label, category, index=idx):
                return inner(item)

    else:

        def call(idx: int, item):
            return fn(item)

    if retries:
        attempt_once = call

        def call(idx: int, item):
            for attempt in range(retries + 1):
                try:
                    return attempt_once(idx, item)
                except TransientFaultError:
                    if attempt == retries:
                        raise
                    obs.counter_add("task_retried", kind="workpool")

    if n_workers is None or n_workers <= 1 or len(items) <= 1:
        return [call(idx, item) for idx, item in enumerate(items)]

    n_workers = min(n_workers, len(items))
    if label is not None:
        obs.gauge_set("workpool_workers", n_workers, label=label)
    results = [None] * len(items)
    errors: list[tuple[int, BaseException]] = []
    cursor = [0]
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                if errors or cursor[0] >= len(items):
                    return
                idx = cursor[0]
                cursor[0] += 1
            try:
                results[idx] = call(idx, items[idx])
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                with lock:
                    errors.append((idx, exc))
                return

    threads = [threading.Thread(target=worker) for _ in range(n_workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise min(errors)[1]
    return results
