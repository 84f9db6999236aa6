"""Accounting objects safe to share across worker threads.

The execution core (:mod:`repro.runtime.executor`) runs one worker loop
on ``n_workers`` threads; every worker reports into the same flop
counter, memory pool and memory tracker.  The read-modify-write updates
of the plain classes are not atomic in CPython, so the core's
:class:`~repro.runtime.executor.ExecutionReport` carries these locked
subclasses — at one inline worker the locks are simply uncontended.
"""

from __future__ import annotations

import threading

import numpy as np

from ..linalg.flops import FlopCounter
from ..matrix.memory import MemoryTracker
from .memory_pool import MemoryPool

__all__ = [
    "ThreadSafeFlopCounter",
    "ThreadSafeMemoryPool",
    "ThreadSafeMemoryTracker",
]


class ThreadSafeFlopCounter(FlopCounter):
    """A :class:`FlopCounter` whose ``add`` is atomic under a lock.

    The read-modify-write on the per-class dicts is not atomic in
    CPython; concurrent kernels would lose updates without this.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def add(self, kind, flops, count: int = 1) -> None:
        with self._lock:
            super().add(kind, flops, count)


class ThreadSafeMemoryPool(MemoryPool):
    """A :class:`MemoryPool` safe to share across worker threads.

    ``take`` calls ``allocate`` internally, hence the reentrant lock.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.RLock()

    def allocate(self, shape, dtype=np.float64):
        with self._lock:
            return super().allocate(shape, dtype=dtype)

    def release(self, buf) -> None:
        with self._lock:
            super().release(buf)

    def take(self, array):
        with self._lock:
            return super().take(array)


class ThreadSafeMemoryTracker(MemoryTracker):
    """A :class:`MemoryTracker` whose counters update atomically."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def allocate_tile(self, key, tile) -> None:
        with self._lock:
            super().allocate_tile(key, tile)

    def transient(self, elements) -> None:
        with self._lock:
            super().transient(elements)
