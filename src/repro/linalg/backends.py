"""Pluggable compression backends: exact SVD and adaptive randomized SVD.

Every (re)compression in the library routes through a
:class:`CompressionBackend`, so the numerical engine behind
:func:`~repro.linalg.compression.compress_block` /
:func:`~repro.linalg.compression.recompress` can be swapped without
touching the tile algorithms:

* :class:`SVDBackend` (``"svd"``) — deterministic truncated ``gesdd``,
  the paper's baseline and the exact oracle of the test suite;
* :class:`RandomizedSVDBackend` (``"rsvd"``) — *adaptive randomized
  approximation* (ARA) in the H2OPUS-TLR style: a Gaussian range finder
  grows the sample space in fixed blocks — the first one seeded by the
  caller's ``rank_hint`` when there is one — until the ε tolerance of the
  :class:`~repro.linalg.compression.TruncationRule` is certified, then a
  small SVD of the projected tile produces the truncated factors.  Tiles
  whose rank approaches a third of the tile size take the exact SVD (the
  randomized scheme has no advantage there);
* :class:`AutoBackend` (``"auto"``) — per-tile dispatch between the two
  on the measured (tile size, ε, predicted rank) surface tabulated in its
  docstring.  It is the one default of library, CLI and service
  (:data:`_default`, ``get_backend(None)``).

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
to the backend's own :meth:`~CompressionBackend.compress` with the tile's
rank before the update as ``rank_hint``.  The stacks
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
from dataclasses import dataclass

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
from .tiles import LowRankTile, PendingTile

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
        return LowRankTile.zero(*a.shape, dtype=a.dtype)
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
        self, a: np.ndarray, rule: TruncationRule, *, seed=None, rank_hint=None
    ) -> LowRankTile:
        """Compress a dense block to a :class:`LowRankTile` under ``rule``.

        ``seed`` (an int or :class:`numpy.random.SeedSequence`) pins the
        randomness of stochastic backends; ``rank_hint`` is the rank the
        caller expects (a rounding passes the tile's rank before the
        update) and sizes their first sample.  Exact backends ignore both.
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
        c: LowRankTile | PendingTile,
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
          :meth:`compress` with ``rank_hint=c.rank`` (exact SVD or ARA;
          ``seed`` pins the latter, callers pass :func:`tile_seed` of the
          destination).

        The rounding runs in the *destination tile's* storage dtype: an
        fp32 tile is packed or summed, and returned, in single precision
        (the update factors are cast), an fp64 tile in double.  The
        certified ε of an fp32 tile sits above fp32 roundoff by policy
        (:mod:`repro.linalg.precision`), so the lower-precision rounding
        stays within the tile's error budget.

        A :class:`~repro.linalg.tiles.PendingTile` ``c`` takes the dense
        path whatever the width, with its generated block (float64) in
        place of ``c.u @ c.v.T``, and is born from the updated block
        (:meth:`PendingTile.born <repro.linalg.tiles.PendingTile.born>`):
        compressed once, unhinted and cast to its storage dtype, or kept
        as a :class:`~repro.linalg.tiles.DenseTile` (``rank_after`` 0:
        nothing was truncated); never a rank growth.
        """
        pending = isinstance(c, PendingTile)
        kc, ku = c.rank, u_upd.shape[1]
        r = kc + ku
        m, n = c.shape
        dtype = c.dtype
        if r == 0 and not pending:
            return RecompressionResult(
                LowRankTile.zero(m, n, dtype=dtype), 0, 0, grew=False
            )
        if pending or 2 * r >= min(m, n):
            # Wide: the dense sum is the smaller representation, formed
            # directly (no workspace — it would be at least as large).
            if pending:
                with obs.span("generate", "assembly"):
                    dense = c.to_dense()
            else:
                dense = c.u @ c.v.T
            dense -= (
                u_upd.astype(dense.dtype, copy=False)
                @ v_upd.astype(dense.dtype, copy=False).T
            )

            def compress(block):
                tile = self.compress(
                    block, rule, seed=seed, rank_hint=None if pending else kc
                )
                # the exact oracle rounds fp32 in fp64
                return tile if tile.dtype == dtype else tile.astype(dtype)

            tile = c.born(dense, compress) if pending else compress(dense)
            lowrank = isinstance(tile, LowRankTile)
            result = RecompressionResult(
                tile, rank_before=r, rank_after=tile.rank if lowrank else 0,
                grew=not pending and tile.rank > kc,
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
        if obs.enabled() and isinstance(result.tile, LowRankTile):
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
        self, a: np.ndarray, rule: TruncationRule, *, seed=None, rank_hint=None
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
        Columns sampled per adaptive round.  With a ``rank_hint`` the
        first round samples ``rank_hint + block_size // 2`` instead.
    fallback_fraction:
        When the hinted or sampled rank reaches this fraction of
        ``min(m, n)`` the exact SVD takes over (see :class:`AutoBackend`).
    min_exact_dim:
        Tiles with ``min(m, n)`` at or below this skip the randomized
        path entirely (LAPACK wins on small tiles).
    probes:
        Gaussian probe vectors for the spectral residual estimate.
    probe_iters:
        Power iterations applied to the probes (2 keeps the estimate
        tight on the flat Matérn tails).
    """

    block_size: int = 16
    fallback_fraction: float = 1.0 / 3.0
    min_exact_dim: int = 64
    probes: int = 3
    probe_iters: int = 2

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {self.block_size}")
        if not (0.0 < self.fallback_fraction <= 1.0):
            raise ConfigurationError(
                f"fallback_fraction must be in (0, 1], got "
                f"{self.fallback_fraction}"
            )


class RandomizedSVDBackend(CompressionBackend):
    """Adaptive randomized SVD (H2OPUS-style ARA) with exact fallback.

    The Gaussian range finder samples ``Y = A @ Ω`` one fixed-size block
    at a time, orthogonalizes against the basis built so far, and appends;
    the projected tile ``B = Qᵀ A`` is maintained incrementally so both the
    Frobenius certificate and the final small SVD are cheap.  Rank grows
    until the rule's ε is certified (module docstring), the rule's
    ``maxrank`` is reached, or the rank reaches a third of the tile and
    the exact path takes over.  The sampler runs in the input's dtype: a
    float32 block goes through ``sgeqrf``/``sgesdd`` and comes back float32.
    """

    name = "rsvd"

    def __init__(self, seed: int = 2021, config: RsvdConfig | None = None) -> None:
        super().__init__()
        self.seed = seed
        self.config = config or RsvdConfig()

    def _max_rank(self, mn: int) -> int:
        """The hinted or sampled rank at which a tile of side ``mn`` goes exact."""
        cfg = self.config
        small = mn <= cfg.min_exact_dim
        return 0 if small else max(int(cfg.fallback_fraction * mn), 1)

    def compress(
        self, a: np.ndarray, rule: TruncationRule, *, seed=None, rank_hint=None
    ) -> LowRankTile:
        single = getattr(a, "dtype", None) == np.float32
        a = check_matrix("a", a, dtype=np.float32 if single else np.float64)
        with obs.span("compress", "compress", backend=self.name):
            if (rank_hint or 0) < self._max_rank(min(a.shape)):
                tile = self._compress_ara(a, rule, seed, rank_hint)
            else:
                tile = _svd_compress(a, rule)
        obs.histogram_observe("tile_rank", tile.rank, stage="compress")
        return tile

    def _compress_ara(
        self, a: np.ndarray, rule: TruncationRule, seed, rank_hint
    ) -> LowRankTile:
        """The adaptive range-finder body (see class docstring)."""
        cfg = self.config
        m, n = a.shape
        mn = min(m, n)
        dtype = a.dtype
        geqrf, orgqr, gesdd = _LAPACK_BY_DTYPE[dtype.char]
        max_rank = self._max_rank(mn)
        rank_cap = mn if rule.maxrank is None else min(rule.maxrank, mn)
        rng = np.random.default_rng(self.seed if seed is None else seed)

        fro2 = float(np.einsum("ij,ij->", a, a, dtype=np.float64))
        if fro2 == 0.0:
            return LowRankTile.zero(m, n, dtype=dtype)
        floor = 4.0 * np.sqrt(np.finfo(dtype).eps * fro2)  # of the gate below

        # First block: the hinted rank plus half a block of oversampling
        # (a certified basis needs a few columns past the truncation rank).
        p = cfg.block_size
        if rank_hint is not None:
            p = max(min(rank_hint, rank_cap) + p // 2, 1)
        kcap = min(max(max_rank, p) + cfg.block_size, mn)
        q_basis = np.empty((kcap, m), dtype=dtype).T  # F-order: column blocks
        b_proj = np.empty((kcap, n), dtype=dtype)
        captured2 = 0.0
        k = 0
        while True:
            p_eff = min(p, kcap - k)
            omega = rng.standard_normal((n, p_eff), dtype=dtype)
            y = a @ omega
            if k:
                qk, bk = q_basis[:, :k], b_proj[:k]
                y -= qk @ (bk @ omega)  # (I - QQᵀ)AΩ via the projected tile
                y -= qk @ (qk.T @ y)  # re-orthogonalize against roundoff
            qb, _ = _econ_qr(y, geqrf, orgqr, True)
            bb = qb.T @ a
            q_basis[:, k : k + p_eff] = qb
            b_proj[k : k + p_eff] = bb
            captured2 += float(np.einsum("ij,ij->", bb, bb, dtype=np.float64))
            k += p_eff

            tol = rule.eps  # in the rule's own norm
            if rule.relative:
                # σ₁(B) ↑ σ₁(A); cheap on the small projected tile.
                tol *= float(np.linalg.norm(b_proj[:k], 2))
            # ||A - QB||_F² = ||A||_F² - ||B||_F² in exact arithmetic, but
            # the subtraction cancels catastrophically once the tail falls
            # below ~sqrt(eps_mach)·||A||_F, so it is only a cheap *gate*:
            # acceptance always goes through a cancellation-free check
            # (implicit-residual probes for the spectral rule, an explicit
            # residual for the Frobenius rule).  The gate opens at the
            # rule's threshold or at the dtype's cancellation floor, below
            # which the subtracted value is noise — whichever is larger.
            resid_f = float(np.sqrt(max(fro2 - captured2, 0.0)))
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
                return _svd_compress(a, rule)  # near a third of full rank
            p = cfg.block_size

        # SVD of Bᵀ: the C-order (k, n) projection *is* an F-order (n, k)
        # array, the tall orientation gesdd handles fastest, copy-free.
        vb, s, ubt, info = gesdd(
            b_proj[:k].T, compute_uv=True, full_matrices=False,
            lwork=_gesdd_lwork(dtype.char, n, k), overwrite_a=True,
        )
        if info != 0:  # pragma: no cover - gesdd rarely fails
            raise CompressionError(f"SVD failed during compression (info={info})")
        kk = truncation_rank(s, rule)
        if kk == 0:
            return LowRankTile.zero(m, n, dtype=dtype)
        root = np.sqrt(s[:kk])
        return LowRankTile(
            (q_basis[:, :k] @ ubt[:kk].T) * root, vb[:, :kk] * root
        )

    def _spectral_estimate(
        self, a: np.ndarray, q_basis: np.ndarray, b_proj: np.ndarray, rng
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
        x = rng.standard_normal((a.shape[1], cfg.probes), dtype=a.dtype)
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
    """Per-tile svd/rsvd dispatch: a pure function of shape, rule and hint.

    Measured by ``benchmarks/bench_ablation_compression.py``, BLAS pinned
    to one thread (NT = 12 st-3D-exp).  Unhinted ``rsvd`` over ``svd``::

        ε      b=100  150    200    250    400
        1e-4   1.31x  1.54x  2.14x  2.43x  2.93x
        1e-6   0.84x  0.95x  1.09x  1.20x  1.31x
        1e-8   0.76x  0.81x  0.84x  0.88x  0.95x

    An initial compression has no hint and follows :attr:`SAMPLE_FROM`,
    that surface cut where sampling wins by 15 %: ε ≥ 1e-4 from b = 100,
    ε ≥ 1e-6 from b = 250, tighter ε always exact.  A rounding carries
    the tile's rank as hint and follows predicted rank over tile size;
    per-tile median ms at b = 200, hint = the exact rank, by rank / b::

        rank/b   <.1   .1-.2  .2-.3  .3-1/3  1/3-.4  .4-.5  >.5
        exact    6.2   6.2    6.3    6.0     5.7     5.8    5.9
        sampled  1.0   1.6    3.5    4.0     4.6     5.4    7.3

    Break-even is near b/2 for a perfect hint; the rule is b/3
    (:attr:`RsvdConfig.fallback_fraction`), where sampling still wins by
    a third, because a rounding's hint overshoots its output rank by up
    to 26 and a blind sample grown to b/3 has spent most of a ``gesdd``.
    Tiles of ``min(m, n)`` ≤ :attr:`RsvdConfig.min_exact_dim` are exact.
    """

    name = "auto"

    #: ``(ε, b)`` rows: an unhinted block is sampled when some row has
    #: ``rule.eps >= ε`` and ``min(m, n) >= b``.
    SAMPLE_FROM = ((1e-4, 100), (1e-6, 250))

    def __init__(self, seed: int = 2021, config: RsvdConfig | None = None) -> None:
        super().__init__()
        self.seed = seed
        self._svd = SVDBackend()
        self._rsvd = RandomizedSVDBackend(seed=seed, config=config)

    def select(
        self, shape: tuple[int, int], rule: TruncationRule, rank_hint=None
    ) -> str:
        """Name of the backend a block of ``shape`` would be routed to."""
        mn = min(shape)
        if rank_hint is None:
            sample = any(rule.eps >= e and mn >= b for e, b in self.SAMPLE_FROM)
        else:
            sample = rank_hint < self._rsvd._max_rank(mn)
        return self._rsvd.name if sample else self._svd.name

    def compress(
        self, a: np.ndarray, rule: TruncationRule, *, seed=None, rank_hint=None
    ) -> LowRankTile:
        a = np.asarray(a)  # dtype untouched: the sampler keeps float32
        exact = a.ndim != 2 or (
            self.select(a.shape, rule, rank_hint) == self._svd.name
        )
        backend = self._svd if exact else self._rsvd
        return backend.compress(a, rule, seed=seed, rank_hint=rank_hint)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: dict[str, type[CompressionBackend]] = {
    SVDBackend.name: SVDBackend,
    RandomizedSVDBackend.name: RandomizedSVDBackend,
    AutoBackend.name: AutoBackend,
}
_instances: dict[str, CompressionBackend] = {}
#: The one place that names the default backend of library, CLI and service.
_default: list[str] = [AutoBackend.name]


def get_backend(
    spec: str | CompressionBackend | None = None,
) -> CompressionBackend:
    """Resolve a backend spec: an instance, a registry name, or ``None``.

    ``None`` resolves to the process default (:data:`_default` unless
    changed by :func:`set_default_backend`).  Named lookups return a
    shared instance.
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
