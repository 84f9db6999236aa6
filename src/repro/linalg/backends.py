"""Pluggable compression backends: exact SVD and adaptive randomized SVD.

Every (re)compression in the library routes through a
:class:`CompressionBackend`, so the numerical engine behind
:func:`~repro.linalg.compression.compress_block` /
:func:`~repro.linalg.compression.recompress` can be swapped without
touching the tile algorithms:

* :class:`SVDBackend` (``"svd"``) — deterministic truncated ``gesdd``,
  the paper's baseline and the library's historical behaviour;
* :class:`RandomizedSVDBackend` (``"rsvd"``) — *adaptive randomized
  approximation* (ARA) in the H2OPUS-TLR style: a blocked Gaussian range
  finder grows the sample space until the ε tolerance of the
  :class:`~repro.linalg.compression.TruncationRule` is certified, then a
  small SVD of the projected tile produces the truncated factors.  Tiles
  whose rank approaches the tile size fall back to the exact SVD (the
  randomized scheme has no advantage there);
* :class:`AutoBackend` (``"auto"``) — per-tile dispatch between the two:
  tiles with ``min(m, n)`` below a crossover (200) take the exact SVD,
  larger tiles ARA (measurements in :class:`AutoBackend`).  The CLI and
  the solver service default to it; the library default
  (``get_backend(None)``) is ``"svd"``.

The ε certificate is two-stage.  The Frobenius residual
``||A - QQᵀA||_F² = ||A||_F² - ||B||_F²`` is tracked exactly and accepts
immediately when it reaches ε (Frobenius bounds spectral from above).
Because Matérn tails are flat, that bound alone over-samples badly for the
``"spectral"`` rule, so once the Frobenius residual drops below
``sqrt(min(m,n) - k) * ε`` — the point where a spectral residual of ε
first becomes *possible* — the spectral norm of the residual is estimated
with a few power-iterated Gaussian probes and compared to ε directly.
The estimate is probabilistic (like all of ARA); the certified factors
carry an error of order ε rather than a hard ε guarantee.

Recompression rounds ``C - Σ_j A_j B_jᵀ`` once per low-rank tile
(:meth:`CompressionBackend.recompress_update`): as stacked factors —
QR-QR-SVD, rank-deterministic and shared by all backends — while the
accumulated width stays below half the tile, else as the dense sum handed
to the backend's own :meth:`~CompressionBackend.compress`.  The stacks
live in a reusable workspace instead of fresh ``hstack`` allocations —
the Section VII-B memory designation applied to the kernel transients,
not just the tile storage.  The stacked rounding calls LAPACK directly
(``geqrf``/``orgqr``/``gesdd``) rather than the ``scipy.linalg``
wrappers: at TLR stack sizes (b ≈ 100, r ≈ 2k) wrapper overhead is a
measurable fraction of the call, and the direct path is dtype-generic —
float32 stacks run the single-precision drivers.

Determinism: a :class:`RandomizedSVDBackend` seeded per tile (see
:func:`tile_seed`) produces bit-identical factors for a given input, so
parallel matrix assembly is reproducible across worker counts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack as _lapack

from .. import obs
from ..utils.exceptions import CompressionError, ConfigurationError
from ..utils.validation import check_matrix
from .compression import (
    RecompressionResult,
    TruncationRule,
    truncation_rank,
)
from .tiles import LowRankTile

__all__ = [
    "CompressionBackend",
    "SVDBackend",
    "RandomizedSVDBackend",
    "AutoBackend",
    "RsvdConfig",
    "get_backend",
    "default_backend",
    "set_default_backend",
    "tile_seed",
]

#: Direct LAPACK drivers keyed by dtype char: (geqrf, orgqr, gesdd).
_LAPACK_BY_DTYPE = {
    "d": (_lapack.dgeqrf, _lapack.dorgqr, _lapack.dgesdd),
    "f": (_lapack.sgeqrf, _lapack.sorgqr, _lapack.sgesdd),
}

#: Optimal gesdd workspace sizes keyed by (dtype char, m, n).  gesdd's
#: default (minimal) LWORK selects a different internal blocking than the
#: optimal size scipy's wrapper queries — measurably slower and *bitwise
#: different* around n≈35 — so the direct path caches and passes the
#: optimal value.  GIL-atomic dict ops; a racing duplicate query is benign.
_GESDD_LWORK_CACHE: dict[tuple[str, int, int], int] = {}

#: Strictly-lower-triangle masks (and dtype-matched zeros) so the R
#: extraction can skip ``np.tri`` mask construction on every call.
#: ``np.where(mask, zero, a)`` is exactly ``np.triu``'s implementation.
_TRIU_MASK_CACHE: dict[tuple[int, int], np.ndarray] = {}
_ZERO_BY_CHAR = {"d": np.zeros(1, np.float64), "f": np.zeros(1, np.float32)}


def _gesdd_lwork(char: str, m: int, n: int) -> int:
    key = (char, m, n)
    lwork = _GESDD_LWORK_CACHE.get(key)
    if lwork is None:
        from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs

        probe = np.empty((1, 1), dtype=np.dtype(char))
        (lwork_fn,) = get_lapack_funcs(("gesdd_lwork",), (probe,))
        lwork = _compute_lwork(
            lwork_fn, m, n, compute_uv=True, full_matrices=False
        )
        _GESDD_LWORK_CACHE[key] = lwork
    return lwork


def _triu_of(a: np.ndarray) -> np.ndarray:
    """``np.triu(a)`` with the boolean mask cached by shape."""
    key = a.shape
    mask = _TRIU_MASK_CACHE.get(key)
    if mask is None:
        mask = np.tri(key[0], key[1], -1, dtype=bool)
        _TRIU_MASK_CACHE[key] = mask
    return np.where(mask, _ZERO_BY_CHAR[a.dtype.char], a)


def tile_seed(base: int, i: int, j: int) -> np.random.SeedSequence:
    """Deterministic per-tile seed for randomized compression.

    Derived from the backend's base seed and the tile coordinates only —
    never from execution order — so a parallel matrix assembly produces
    bit-identical tiles for any worker count.
    """
    return np.random.SeedSequence(entropy=base, spawn_key=(i, j))


# ----------------------------------------------------------------------
# Shared numerical cores
# ----------------------------------------------------------------------
def _svd_compress(a: np.ndarray, rule: TruncationRule) -> LowRankTile:
    """Exact truncated SVD of a dense block (the ``gesdd`` fast path)."""
    try:
        u, s, vt = sla.svd(
            a, full_matrices=False, lapack_driver="gesdd", check_finite=False
        )
    except sla.LinAlgError as exc:  # pragma: no cover - gesdd rarely fails
        raise CompressionError(f"SVD failed during compression: {exc}") from exc
    k = truncation_rank(s, rule)
    if k == 0:
        return LowRankTile.zero(*a.shape)
    root = np.sqrt(s[:k])
    return LowRankTile(u[:, :k] * root, vt[:k].T * root)


def _econ_qr(
    a: np.ndarray, geqrf, orgqr, overwrite: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Economic QR ``a = Q R`` via direct LAPACK calls.

    Handles the wide case (stacked rank exceeding the tile side): with
    ``a`` of shape ``(m, r)`` and ``k = min(m, r)``, returns ``Q`` of
    shape ``(m, k)`` and ``R`` of shape ``(k, r)``.
    """
    m, r = a.shape
    k = min(m, r)
    qr_, tau, _, info = geqrf(a, overwrite_a=overwrite)
    if info != 0:  # pragma: no cover - geqrf only fails on bad arguments
        raise CompressionError(f"geqrf failed during recompression (info={info})")
    rmat = _triu_of(qr_[:k, :])
    # R is extracted and ``qr_`` is ours (the caller's buffer under
    # ``overwrite``, geqrf's fresh copy otherwise), so orgqr may expand Q
    # over the factored columns in place.
    q, _, info = orgqr(qr_[:, :k], tau, overwrite_a=True)
    if info != 0:  # pragma: no cover
        raise CompressionError(f"orgqr failed during recompression (info={info})")
    return q, rmat


def _qr_svd_recompress(
    u_stack: np.ndarray,
    v_stack: np.ndarray,
    rule: TruncationRule,
    previous_rank: int | None,
    *,
    overwrite: bool = False,
) -> RecompressionResult:
    """QR-QR-SVD rounding of ``u_stack @ v_stack.T`` (all backends).

    Dtype-generic: float64 stacks run the ``d``-prefixed LAPACK drivers
    (bitwise identical to the historical ``scipy.linalg`` wrapper path),
    float32 stacks the ``s``-prefixed ones, and the rounded tile keeps
    the stack's storage dtype.  With ``overwrite`` the QR factorizations
    are allowed to destroy the stacked factors — safe when they live in a
    pooled workspace buffer that is released right after.
    """
    r = u_stack.shape[1]
    m, n = u_stack.shape[0], v_stack.shape[0]
    dtype = u_stack.dtype
    if r == 0:
        tile = LowRankTile.zero(m, n, dtype=dtype)
        return RecompressionResult(tile, 0, 0, grew=False)
    try:
        geqrf, orgqr, gesdd = _LAPACK_BY_DTYPE[dtype.char]
    except KeyError:  # pragma: no cover - stacks are always f32/f64
        raise CompressionError(
            f"unsupported recompression dtype {dtype}"
        ) from None
    qu, ru = _econ_qr(u_stack, geqrf, orgqr, overwrite)
    qv, rv = _econ_qr(v_stack, geqrf, orgqr, overwrite)
    core = ru @ rv.T
    # Optimal LWORK (cached): the minimal default is slower *and* selects
    # a different blocking — scipy's wrapper passes the optimal size, and
    # bitwise parity with the reference rounding depends on matching it.
    lwork = _gesdd_lwork(dtype.char, core.shape[0], core.shape[1])
    uc, s, vct, info = gesdd(
        core, compute_uv=True, full_matrices=False, lwork=lwork, overwrite_a=True
    )
    if info != 0:  # pragma: no cover - gesdd rarely fails
        raise CompressionError(f"SVD failed during recompression (info={info})")
    k = truncation_rank(s, rule)
    if k == 0:
        tile = LowRankTile.zero(m, n, dtype=dtype)
    else:
        root = np.sqrt(s[:k])
        tile = LowRankTile((qu @ uc[:, :k]) * root, (qv @ vct[:k].T) * root)
    prev = r if previous_rank is None else previous_rank
    return RecompressionResult(tile, rank_before=r, rank_after=k, grew=k > prev)


class _StackWorkspace:
    """Grow-only scratch buffers for the recompression stacks.

    One flat buffer serves both stacks of a rounding, viewed at the
    width that rounding needs.  An idle buffer is reused when it is
    large enough and replaced by a larger one when it is not, so the
    workspace holds one buffer per dtype and *concurrently rounding*
    thread, each no larger than the largest request it has served
    (free lists keyed by size would pin a buffer per distinct stack
    width: 150 classes and 90 MB after one N=3200/ε=1e-8 factorization).

    The pool-stats import is deferred to first use: ``repro.runtime``
    imports :mod:`repro.linalg` at package load, so a module-level
    import here would be circular.
    """

    def __init__(self) -> None:
        from ..runtime.memory_pool import PoolStats

        self.stats = PoolStats()
        self._idle: dict[str, list[np.ndarray]] = {}
        self._lock = threading.Lock()

    def acquire(self, nelem: int, dtype: np.dtype) -> np.ndarray:
        """A flat buffer of at least ``nelem`` elements (not zeroed)."""
        stats = self.stats
        with self._lock:
            idle = self._idle.get(dtype.char)
            buf = idle.pop() if idle else None
            if buf is not None and buf.size >= nelem:
                stats.reuses += 1
            else:
                buf = np.empty(nelem, dtype=dtype)
                stats.allocations += 1
            stats.outstanding_bytes += buf.nbytes
            stats.peak_bytes = max(stats.peak_bytes, stats.outstanding_bytes)
        return buf

    def release(self, buf: np.ndarray) -> None:
        with self._lock:
            self._idle.setdefault(buf.dtype.char, []).append(buf)
            self.stats.releases += 1
            self.stats.outstanding_bytes -= buf.nbytes

    @property
    def idle_bytes(self) -> int:
        """Bytes parked in idle buffers."""
        with self._lock:
            return sum(b.nbytes for bufs in self._idle.values() for b in bufs)


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class CompressionBackend:
    """Interface every compression engine implements.

    Subclasses provide :meth:`compress`; recompression is the shared
    QR-QR-SVD rounding with a reusable stack workspace.
    """

    #: Registry name (``"svd"``, ``"rsvd"``).
    name: str = "base"
    #: Base entropy for per-tile seeding (ignored by deterministic backends).
    seed: int = 0

    def __init__(self) -> None:
        self._workspace: _StackWorkspace | None = None

    # -- compression ---------------------------------------------------
    def compress(
        self, a: np.ndarray, rule: TruncationRule, *, seed=None
    ) -> LowRankTile:
        """Compress a dense block to a :class:`LowRankTile` under ``rule``.

        ``seed`` (an int or :class:`numpy.random.SeedSequence`) pins the
        randomness of stochastic backends; deterministic backends ignore it.
        """
        raise NotImplementedError

    # -- recompression -------------------------------------------------
    def recompress(
        self,
        u_stack: np.ndarray,
        v_stack: np.ndarray,
        rule: TruncationRule,
        *,
        previous_rank: int | None = None,
    ) -> RecompressionResult:
        """Round ``u_stack @ v_stack.T`` to ``rule`` (caller-owned stacks)."""
        u_stack = check_matrix("u_stack", u_stack)
        v_stack = check_matrix("v_stack", v_stack)
        if v_stack.shape[1] != u_stack.shape[1]:
            raise CompressionError(
                f"stacked factor rank mismatch: U has {u_stack.shape[1]}, "
                f"V has {v_stack.shape[1]}"
            )
        with obs.span("recompress", "recompress", backend=self.name):
            result = _qr_svd_recompress(u_stack, v_stack, rule, previous_rank)
        obs.histogram_observe(
            "tile_rank", result.rank_after, stage="recompress_post"
        )
        return result

    def recompress_update(
        self,
        c: LowRankTile,
        u_upd: np.ndarray,
        v_upd: np.ndarray,
        rule: TruncationRule,
        *,
        seed=None,
    ) -> RecompressionResult:
        """Round ``C - u_upd @ v_upd.T`` once, in the smaller representation.

        ``u_upd``/``v_upd`` hold every pending update of the tile side by
        side (one panel product or all of them — the kernel does not
        care), so the accumulated width is ``W = c.rank + u_upd.shape[1]``.
        The sum is rounded in whichever form has fewer elements:

        * ``W < min(m, n) / 2`` — the stacked factors, ``(m + n)·W``
          elements, packed into the reusable workspace: QR-QR-SVD in
          place on it;
        * otherwise — the dense ``m x n`` sum, handed to the backend's own
          :meth:`compress` (exact SVD or ARA; ``seed`` pins the latter,
          callers pass :func:`tile_seed` of the destination).

        The rounding runs in the *destination tile's* storage dtype: an
        fp32 tile is packed or summed, and returned, in single precision
        (the update factors are cast), an fp64 tile in double.  The
        certified ε of an fp32 tile sits above fp32 roundoff by policy
        (:mod:`repro.linalg.precision`), so the lower-precision rounding
        stays within the tile's error budget.
        """
        kc, ku = c.rank, u_upd.shape[1]
        r = kc + ku
        m, n = c.shape
        dtype = c.dtype
        if r == 0:
            return RecompressionResult(
                LowRankTile.zero(m, n, dtype=dtype), 0, 0, grew=False
            )
        if 2 * r >= min(m, n):
            # Wide: the dense sum is the smaller representation, formed
            # directly (no workspace — it would be at least as large).
            dense = c.u @ c.v.T
            dense -= (
                u_upd.astype(dtype, copy=False)
                @ v_upd.astype(dtype, copy=False).T
            )
            tile = self.compress(dense, rule, seed=seed)
            if tile.dtype != dtype:
                tile = tile.astype(dtype)
            result = RecompressionResult(
                tile, rank_before=r, rank_after=tile.rank,
                grew=tile.rank > kc,
            )
        else:
            if self._workspace is None:
                self._workspace = _StackWorkspace()
            ws = self._workspace
            buf = ws.acquire((m + n) * r, dtype)
            # Viewed transposed so the stacks are F-contiguous: the
            # in-place geqrf/orgqr calls then factor the workspace
            # directly instead of f2py copying a C-order stack.
            us = buf[: m * r].reshape(r, m).T
            vs = buf[m * r : (m + n) * r].reshape(r, n).T
            try:
                us[:, :kc] = c.u
                us[:, kc:] = u_upd
                vs[:, :kc] = c.v
                np.multiply(v_upd, -1.0, out=vs[:, kc:])
                with obs.span("recompress", "recompress", backend=self.name):
                    result = _qr_svd_recompress(
                        us, vs, rule, kc, overwrite=True
                    )
            finally:
                ws.release(buf)
        if obs.enabled():
            obs.histogram_observe("tile_rank", kc, stage="recompress_pre")
            obs.histogram_observe(
                "tile_rank", result.rank_after, stage="recompress_post"
            )
        return result

    @property
    def workspace_pool_stats(self):
        """Reuse/allocation counters of the stack workspace (a
        :class:`~repro.runtime.memory_pool.PoolStats`; ``None`` before
        first use)."""
        return None if self._workspace is None else self._workspace.stats

    @property
    def workspace_idle_bytes(self) -> int:
        """Bytes the stack workspace holds while no rounding is running."""
        return 0 if self._workspace is None else self._workspace.idle_bytes


class SVDBackend(CompressionBackend):
    """Deterministic exact truncated SVD (``gesdd``) — the baseline."""

    name = "svd"

    def compress(
        self, a: np.ndarray, rule: TruncationRule, *, seed=None
    ) -> LowRankTile:
        a = check_matrix("a", a)
        with obs.span("compress", "compress", backend=self.name):
            tile = _svd_compress(a, rule)
        obs.histogram_observe("tile_rank", tile.rank, stage="compress")
        return tile


@dataclass(frozen=True)
class RsvdConfig:
    """Tuning knobs of the adaptive randomized range finder.

    Attributes
    ----------
    block_size:
        Columns sampled per adaptive round; the first round's size.
    block_growth:
        Geometric growth of the round size (fewer passes for high-rank
        tiles at the cost of mild over-sampling).
    max_block:
        Cap on the per-round sample size.
    fallback_fraction:
        When the sampled rank reaches this fraction of ``min(m, n)`` the
        tile is near full rank and the exact SVD takes over.
    min_exact_dim:
        Tiles with ``min(m, n)`` at or below this skip the randomized
        path entirely (LAPACK wins on small tiles).
    probes:
        Gaussian probe vectors for the spectral residual estimate.
    probe_iters:
        Power iterations applied to the probes (2 keeps the estimate
        tight on the flat Matérn tails).
    """

    block_size: int = 32
    block_growth: float = 1.5
    max_block: int = 64
    fallback_fraction: float = 0.5
    min_exact_dim: int = 64
    probes: int = 3
    probe_iters: int = 2

    def __post_init__(self) -> None:
        if self.block_size < 1 or self.max_block < self.block_size:
            raise ConfigurationError(
                f"need 1 <= block_size <= max_block, got "
                f"{self.block_size}/{self.max_block}"
            )
        if self.block_growth < 1.0:
            raise ConfigurationError(
                f"block_growth must be >= 1, got {self.block_growth}"
            )
        if not (0.0 < self.fallback_fraction <= 1.0):
            raise ConfigurationError(
                f"fallback_fraction must be in (0, 1], got "
                f"{self.fallback_fraction}"
            )


class RandomizedSVDBackend(CompressionBackend):
    """Adaptive randomized SVD (H2OPUS-style ARA) with exact fallback.

    The blocked Gaussian range finder samples ``Y = A @ Ω`` one block at a
    time, orthogonalizes against the basis built so far, and appends; the
    projected tile ``B = Qᵀ A`` is maintained incrementally so both the
    Frobenius certificate and the final small SVD are cheap.  Rank grows
    until the rule's ε is certified (module docstring), the rule's
    ``maxrank`` is reached, or the tile proves near-full-rank and the
    exact path takes over.
    """

    name = "rsvd"

    def __init__(self, seed: int = 2021, config: RsvdConfig | None = None) -> None:
        super().__init__()
        self.seed = seed
        self.config = config or RsvdConfig()

    def compress(
        self, a: np.ndarray, rule: TruncationRule, *, seed=None
    ) -> LowRankTile:
        a = check_matrix("a", a)
        with obs.span("compress", "compress", backend=self.name):
            tile = self._compress_ara(a, rule, seed)
        obs.histogram_observe("tile_rank", tile.rank, stage="compress")
        return tile

    def _compress_ara(
        self, a: np.ndarray, rule: TruncationRule, seed
    ) -> LowRankTile:
        """The adaptive range-finder body (see class docstring)."""
        cfg = self.config
        m, n = a.shape
        mn = min(m, n)
        if mn <= cfg.min_exact_dim:
            return _svd_compress(a, rule)
        max_rank = max(int(cfg.fallback_fraction * mn), 1)
        rank_cap = mn if rule.maxrank is None else min(rule.maxrank, mn)
        rng = np.random.default_rng(self.seed if seed is None else seed)

        fro2 = float(np.einsum("ij,ij->", a, a))
        if fro2 == 0.0:
            return LowRankTile.zero(m, n)
        # Threshold in the rule's own norm; the relative variant scales by
        # the running σ₁ estimate from the projected tile.
        tol_abs = rule.eps

        kcap = min(max_rank + cfg.max_block, mn)
        q_basis = np.empty((m, kcap))
        b_proj = np.empty((kcap, n))
        captured2 = 0.0
        k = 0
        p = cfg.block_size
        while True:
            p_eff = min(p, kcap - k)
            omega = rng.standard_normal((n, p_eff))
            y = a @ omega
            if k:
                qk, bk = q_basis[:, :k], b_proj[:k]
                y -= qk @ (bk @ omega)  # (I - QQᵀ)AΩ via the projected tile
                y -= qk @ (qk.T @ y)  # re-orthogonalize against roundoff
            qb, _ = sla.qr(y, mode="economic", check_finite=False, overwrite_a=True)
            bb = qb.T @ a
            q_basis[:, k : k + p_eff] = qb
            b_proj[k : k + p_eff] = bb
            captured2 += float(np.einsum("ij,ij->", bb, bb))
            k += p_eff

            tol = tol_abs
            if rule.relative:
                # σ₁(B) ↑ σ₁(A); cheap on the small projected tile.
                tol = tol_abs * float(np.linalg.norm(b_proj[:k], 2))
            # ||A - QB||_F² = ||A||_F² - ||B||_F² in exact arithmetic, but
            # the subtraction cancels catastrophically once the tail falls
            # below ~sqrt(eps_mach)·||A||_F, so it is only a cheap *gate*:
            # acceptance always goes through a cancellation-free check
            # (implicit-residual probes for the spectral rule, an explicit
            # residual for the Frobenius rule).  The gate opens at the
            # rule's own threshold or at the cancellation floor, whichever
            # is larger — below the floor the subtracted value is noise.
            resid_f = float(np.sqrt(max(fro2 - captured2, 0.0)))
            floor = 4.0e-8 * np.sqrt(fro2)
            if rule.norm == "spectral":
                # sqrt(mn-k)·tol is where a spectral residual of tol first
                # becomes possible for this Frobenius tail.
                if resid_f <= max(np.sqrt(mn - k) * tol, floor):
                    est = self._spectral_estimate(
                        a, q_basis[:, :k], b_proj[:k], rng
                    )
                    if est <= tol:
                        break
            elif resid_f <= max(tol, floor):
                resid = a - q_basis[:, :k] @ b_proj[:k]
                if np.sqrt(np.einsum("ij,ij->", resid, resid)) <= tol:
                    break
            if k >= rank_cap:
                break  # rule.maxrank saturated: accuracy cap is void anyway
            if k >= max_rank:
                return _svd_compress(a, rule)  # near full rank
            p = min(int(p * cfg.block_growth), cfg.max_block)

        ub, s, vt = sla.svd(
            b_proj[:k],
            full_matrices=False,
            lapack_driver="gesdd",
            check_finite=False,
        )
        kk = truncation_rank(s, rule)
        if kk == 0:
            return LowRankTile.zero(m, n)
        root = np.sqrt(s[:kk])
        return LowRankTile(
            (q_basis[:, :k] @ ub[:, :kk]) * root, vt[:kk].T * root
        )

    def _spectral_estimate(
        self,
        a: np.ndarray,
        q_basis: np.ndarray,
        b_proj: np.ndarray,
        rng: np.random.Generator,
    ) -> float:
        """Power-probe estimate of ``||A - QB||_2``.

        The residual is applied implicitly as ``R x = A x - Q (B x)`` —
        mat-vec cancellation is benign (absolute error ~eps_mach·||A||,
        far below the ~tol·||A|| signal), unlike the scalar Frobenius
        subtraction.  A handful of Gaussian probes driven through a couple
        of power iterations converge onto the residual's top singular
        value (flat residual spectra — the hard case for the estimate's
        accuracy — are exactly the case where every estimate is ≈ σ₁
        anyway).
        """
        cfg = self.config
        x = rng.standard_normal((a.shape[1], cfg.probes))
        x = a @ x - q_basis @ (b_proj @ x)
        est = 0.0
        for _ in range(cfg.probe_iters):
            z = a.T @ x - b_proj.T @ (q_basis.T @ x)
            x = a @ z - q_basis @ (b_proj @ z)
            nz = np.linalg.norm(z, axis=0)
            nx = np.linalg.norm(x, axis=0)
            with np.errstate(invalid="ignore", divide="ignore"):
                ratios = np.where(nz > 0.0, nx / np.where(nz > 0.0, nz, 1.0), 0.0)
            est = float(np.max(ratios))
        return est


class AutoBackend(CompressionBackend):
    """Per-tile svd/rsvd dispatch around a tile-size crossover.

    Below a tile size the blocked range finder's extra passes and Python
    dispatch cost more than the ``gesdd`` they save.  With BLAS pinned to
    one thread (NT = 12 st-3D-exp, a 2-core host, all off-band tiles)
    ``rsvd`` over ``svd`` measures, by tile size b:

    ========  =====  =====  =====  =====  =====
    ε         100    150    200    250    400
    ========  =====  =====  =====  =====  =====
    1e-4      0.88x  1.17x  1.62x  1.75x  2.68x
    1e-6      0.72x  0.87x  1.02x  1.23x  1.56x
    1e-8      0.67x  0.76x  0.78x  0.85x  1.02x
    ========  =====  =====  =====  =====  =====

    ``auto`` applies a single threshold to that surface: blocks whose
    ``min(m, n)`` is under :attr:`crossover` (200) take the exact SVD,
    larger blocks the adaptive randomized path — a win at loose ε, a
    wash at ε = 1e-6 and a loss at ε = 1e-8 until b ≈ 400.  Very tight
    tolerances (ε ≤ :attr:`exact_eps`) pin the exact path outright:
    ranks approach the tile size there and ARA would fall back anyway,
    after paying for the sampling.

    The stacked QR-QR-SVD rounding is backend-independent, so below half
    a tile's width ``auto`` only changes initial compression; a wide
    accumulated update is rounded through :meth:`compress` and follows
    the same dispatch (:meth:`CompressionBackend.recompress_update`).
    The CLI and :class:`~repro.service.cache.FactorRecipe` default to
    ``"auto"``; the library default (``get_backend(None)``) is ``"svd"``.
    """

    name = "auto"

    def __init__(
        self,
        crossover: int = 200,
        seed: int = 2021,
        config: RsvdConfig | None = None,
        exact_eps: float = 1e-10,
    ) -> None:
        super().__init__()
        if crossover < 1:
            raise ConfigurationError(f"crossover must be >= 1, got {crossover}")
        self.crossover = crossover
        self.exact_eps = exact_eps
        self.seed = seed
        self._svd = SVDBackend()
        self._rsvd = RandomizedSVDBackend(seed=seed, config=config)

    def select(self, shape: tuple[int, int], rule: TruncationRule) -> str:
        """Name of the backend a block of ``shape`` would be routed to."""
        if min(shape) >= self.crossover and rule.eps > self.exact_eps:
            return self._rsvd.name
        return self._svd.name

    def compress(
        self, a: np.ndarray, rule: TruncationRule, *, seed=None
    ) -> LowRankTile:
        a = check_matrix("a", a)
        if self.select(a.shape, rule) == self._rsvd.name:
            return self._rsvd.compress(a, rule, seed=seed)
        return self._svd.compress(a, rule, seed=seed)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: dict[str, type[CompressionBackend]] = {
    SVDBackend.name: SVDBackend,
    RandomizedSVDBackend.name: RandomizedSVDBackend,
    AutoBackend.name: AutoBackend,
}
_instances: dict[str, CompressionBackend] = {}
_default: list[str] = ["svd"]


def get_backend(
    spec: str | CompressionBackend | None = None,
) -> CompressionBackend:
    """Resolve a backend spec: an instance, a registry name, or ``None``.

    ``None`` resolves to the process default (``"svd"`` unless changed by
    :func:`set_default_backend`).  Named lookups return a shared instance.
    """
    if spec is None:
        spec = _default[0]
    if isinstance(spec, CompressionBackend):
        return spec
    try:
        cls = _BACKENDS[spec]
    except KeyError:
        raise ConfigurationError(
            f"unknown compression backend {spec!r}; "
            f"available: {sorted(_BACKENDS)}"
        ) from None
    if spec not in _instances:
        _instances[spec] = cls()
    return _instances[spec]


def default_backend() -> CompressionBackend:
    """The process-wide default backend instance."""
    return get_backend(_default[0])


def set_default_backend(spec: str | CompressionBackend) -> CompressionBackend:
    """Set (and return) the process-wide default backend."""
    backend = get_backend(spec)
    if isinstance(spec, CompressionBackend):
        _instances[backend.name] = backend
    _default[0] = backend.name
    return backend
