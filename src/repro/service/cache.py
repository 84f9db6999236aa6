"""Factor cache: geometry-keyed, LRU-by-bytes store of Cholesky factors.

The service's economics rest on one asymmetry: a BAND-DENSE-TLR
factorization costs :math:`O(N b^2 NT)` while a solve against the factor
costs :math:`O(N b + N k NT)` — orders of magnitude apart at the paper's
scales.  H2OPUS-TLR (PAPERS.md, 2108.11932) wins its throughput by
amortizing setup across repeated use; this module is that amortization
for the solve-serving workload: factorize once per *factor identity*,
keep the factor resident, serve every later request from memory.

A factor identity (:class:`FactorKey`) is the full tuple of inputs that
determine the factor's numerical content:

* the **geometry hash** — SHA-256 over the problem's point coordinates,
  tile size, and nugget (the literal bytes; any perturbation is a new
  identity);
* the **kernel** name and its **θ** parameter vector;
* the truncation **ε** and optional rank cap;
* the dense **band** width (``"auto"`` is part of the identity — the
  tuner's choice is deterministic for a given problem, but an explicit
  band is a different request even when the integers coincide).

Precision needs no field of its own: a factor's off-band tiles are
float32 exactly when ε clears
:data:`~repro.linalg.precision.FP32_EPS_FLOOR`, so ε already fixes it.

Eviction is LRU by resident bytes (factors are large and few; counting
entries would let one dense-band giant evict everything).  A warm-start
tier rehydrates from PR-4 panel-frontier checkpoints: when a
``warm_dir`` is configured, each factor identity gets its own checkpoint
subdirectory, cold builds write checkpoints there, and a later cache
miss resumes from the completed frontier instead of refactorizing.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import obs
from ..core.api import TLRSolver
from ..core.factorize import FactorizationReport
from ..matrix.tlr_matrix import BandTLRMatrix
from ..statistics.problem import CovarianceProblem
from ..utils.exceptions import ConfigurationError
from ..utils.validation import check_band_size

__all__ = [
    "geometry_hash",
    "FactorKey",
    "FactorRecipe",
    "CacheEntry",
    "CacheStats",
    "FactorCache",
]


def geometry_hash(problem: CovarianceProblem) -> str:
    """SHA-256 of a problem's point cloud and tiling (hex digest).

    Hashes the literal float64 coordinate bytes plus the array shape,
    tile size, and nugget — everything about the problem that shapes
    the covariance matrix other than the kernel parameters (which the
    :class:`FactorKey` carries explicitly as ``kernel``/``theta``).
    """
    h = hashlib.sha256()
    pts = np.ascontiguousarray(problem.points, dtype=np.float64)
    h.update(repr(pts.shape).encode())
    h.update(pts.tobytes())
    h.update(repr(("tile_size", problem.tile_size)).encode())
    h.update(repr(("nugget", float(problem.nugget))).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class FactorKey:
    """One factor identity: (geometry hash, kernel, θ, ε, band, rank cap).

    Hashable and order-stable — the cache keys on it directly.  Build
    one with :meth:`from_problem` (or through a :class:`FactorRecipe`).
    """

    geometry: str
    kernel: str
    theta: tuple[float, ...]
    eps: float
    band_size: int | str
    maxrank: int | None = None

    @classmethod
    def from_problem(
        cls,
        problem: CovarianceProblem,
        *,
        accuracy: float,
        band_size: int | str = "auto",
        maxrank: int | None = None,
    ) -> "FactorKey":
        return cls(
            geometry=geometry_hash(problem),
            kernel="matern",
            theta=problem.params.as_tuple(),
            eps=float(accuracy),
            band_size=check_band_size(band_size),
            maxrank=maxrank,
        )

    def digest(self, length: int = 12) -> str:
        """Short stable hex digest for labels and warm-dir names."""
        h = hashlib.sha256()
        h.update(repr((
            self.geometry, self.kernel, self.theta, self.eps,
            self.band_size, self.maxrank,
        )).encode())
        return h.hexdigest()[:length]


@dataclass(frozen=True)
class FactorRecipe:
    """A :class:`FactorKey` plus everything needed to *build* its factor.

    The key identifies the factor's numerical content; the recipe adds
    the build-only knobs that change cost but not identity (compression
    backend and assembly/factorization worker counts).
    """

    problem: CovarianceProblem
    accuracy: float = 1e-8
    band_size: int | str = "auto"
    compression: str | None = None
    maxrank: int | None = None
    n_workers: int | None = None

    def key(self) -> FactorKey:
        return FactorKey.from_problem(
            self.problem,
            accuracy=self.accuracy,
            band_size=self.band_size,
            maxrank=self.maxrank,
        )

    def build(
        self, *, checkpoint=None, resume: bool = False
    ) -> tuple[BandTLRMatrix, FactorizationReport]:
        """Compress + factorize from scratch (or resume a checkpoint)."""
        solver = TLRSolver.from_problem(
            self.problem,
            accuracy=self.accuracy,
            band_size=self.band_size,
            maxrank=self.maxrank,
            compression=self.compression,
            n_workers=self.n_workers,
        )
        report = solver.factorize(
            n_workers=self.n_workers,
            checkpoint=checkpoint,
            resume=resume,
        )
        return solver.matrix, report


@dataclass
class CacheEntry:
    """One resident factor with its provenance and byte accounting."""

    key: FactorKey
    matrix: BandTLRMatrix
    report: FactorizationReport | None
    nbytes: int
    hits: int = 0


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time snapshot of the cache's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    warm_starts: int = 0
    factorizations: int = 0
    installs: int = 0
    resident_entries: int = 0
    resident_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class FactorCache:
    """LRU-by-bytes factor store with single-flight builds and warm start.

    Parameters
    ----------
    max_bytes:
        Resident-byte budget; ``None`` disables eviction.  The entry
        just inserted is never evicted (a single factor larger than the
        budget stays resident until something else displaces it).
    warm_dir:
        Warm-start tier root.  Each factor identity checkpoints into
        ``warm_dir/<key.digest()>`` during cold builds; later misses on
        the same identity resume from the completed panel frontier via
        the PR-4 checkpoint machinery instead of refactorizing.

    Thread safety: lookups and installs are guarded by one lock; builds
    run *outside* it under a per-key build lock, so concurrent misses on
    the same identity factorize exactly once (single-flight) while
    different identities build in parallel.
    """

    def __init__(
        self,
        max_bytes: int | None = None,
        warm_dir: str | Path | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigurationError(
                f"max_bytes must be positive or None, got {max_bytes}"
            )
        self.max_bytes = max_bytes
        self.warm_dir = Path(warm_dir) if warm_dir is not None else None
        self._lock = threading.Lock()
        self._entries: OrderedDict[FactorKey, CacheEntry] = OrderedDict()
        self._building: dict[FactorKey, threading.Lock] = {}
        self._resident_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._warm_starts = 0
        self._factorizations = 0
        self._installs = 0

    # -- lookups ---------------------------------------------------------
    def get(self, key: FactorKey) -> CacheEntry | None:
        """LRU lookup; counts a hit or a miss and updates recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                obs.counter_add("service_cache_miss")
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self._hits += 1
            obs.counter_add("service_cache_hit")
            return entry

    def _peek(self, key: FactorKey) -> CacheEntry | None:
        """Lookup without touching counters or recency (build re-check)."""
        with self._lock:
            return self._entries.get(key)

    def __contains__(self, key: FactorKey) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- installs / eviction --------------------------------------------
    @staticmethod
    def factor_nbytes(matrix: BandTLRMatrix) -> int:
        return sum(t.memory_bytes() for t in matrix.tiles.values())

    def install(
        self,
        key: FactorKey,
        matrix: BandTLRMatrix,
        report: FactorizationReport | None = None,
    ) -> CacheEntry:
        """Insert a factorized matrix under ``key`` (most-recent position)."""
        entry = CacheEntry(
            key=key,
            matrix=matrix,
            report=report,
            nbytes=self.factor_nbytes(matrix),
        )
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._resident_bytes -= old.nbytes
            self._entries[key] = entry
            self._resident_bytes += entry.nbytes
            self._installs += 1
            self._evict_locked()
            obs.gauge_set("service_cache_bytes", self._resident_bytes)
            obs.gauge_set("service_cache_entries", len(self._entries))
        return entry

    def _evict_locked(self) -> None:
        if self.max_bytes is None:
            return
        while self._resident_bytes > self.max_bytes and len(self._entries) > 1:
            _, victim = self._entries.popitem(last=False)
            self._resident_bytes -= victim.nbytes
            self._evictions += 1
            obs.counter_add("service_cache_eviction")

    # -- the miss path ---------------------------------------------------
    def get_or_build(self, recipe: FactorRecipe) -> CacheEntry:
        """Return the recipe's factor, building (or warm-starting) on miss.

        Single-flight per identity: concurrent misses on the same key
        block on one build; the losers re-check and take the winner's
        entry as a hit.  A cache-warm identity therefore never
        refactorizes, no matter how many requests race.
        """
        key = recipe.key()
        entry = self.get(key)
        if entry is not None:
            return entry
        with self._lock:
            build_lock = self._building.setdefault(key, threading.Lock())
        with build_lock:
            entry = self._peek(key)
            if entry is not None:
                # built while we waited for the lock: a hit, not a build
                with self._lock:
                    self._hits += 1
                    self._misses -= 1  # the earlier get() overcounted
                    entry.hits += 1
                obs.counter_add("service_cache_hit")
                return entry
            checkpoint, resume = self._warm_state(key)
            with obs.span(
                "service_factorize", "service",
                key=key.digest(), resume=resume,
            ):
                matrix, report = recipe.build(
                    checkpoint=checkpoint, resume=resume
                )
            with self._lock:
                self._factorizations += 1
                if resume and report.tasks_resumed:
                    self._warm_starts += 1
            if resume and report.tasks_resumed:
                obs.counter_add("service_cache_warm_start")
            return self.install(key, matrix, report)

    def _warm_state(self, key: FactorKey) -> tuple[str | None, bool]:
        """Per-key checkpoint directory and whether it holds a frontier."""
        if self.warm_dir is None:
            return None, False
        ckpt_dir = self.warm_dir / key.digest()
        resume = any(ckpt_dir.glob("ckpt-*.json"))
        return str(ckpt_dir), resume

    # -- introspection ---------------------------------------------------
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                warm_starts=self._warm_starts,
                factorizations=self._factorizations,
                installs=self._installs,
                resident_entries=len(self._entries),
                resident_bytes=self._resident_bytes,
            )

    def keys(self) -> list[FactorKey]:
        """Resident keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries.keys())
