"""The tile compressor: exact SVD and adaptive randomized SVD, one rule.

Every (re)compression in the library goes through one compressor,
:func:`default_backend` — an :class:`AutoBackend`, which routes each
tile to one of two internal paths by a rule of (tile size, ε, predicted
rank) that this module alone knows (:attr:`AutoBackend.SAMPLE_FROM`, the
b/3 fallback and :attr:`RandomizedSVDBackend.MIN_EXACT_DIM`).  Nothing
above this module selects or tunes the route:

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
  on the measured surface tabulated in its docstring.

:func:`get_backend` looks the three up by name, for the tests and the
benchmarks that measure one path against the other.

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
QR-QR-SVD, rank-deterministic and shared by all three classes — while the
accumulated width stays below half the tile, else as the dense sum handed
to :meth:`~CompressionBackend.compress` with the tile's rank before the
update as ``rank_hint``.  The stacks
live in a reusable workspace instead of fresh ``hstack`` allocations —
the Section VII-B memory designation applied to the kernel transients,
not just the tile storage.  Every QR and SVD here — the stacked
rounding's ``geqrf``/``orgqr``/``gesdd``, the sampler's, the exact
SVD's — goes through :mod:`repro.linalg.blas`: the same LAPACK routines
the ``scipy.linalg`` wrappers call, with the same arguments and bits,
but with the interpreter lock released, so two workers overlap their
compressions.  The calls are dtype-generic: float32 stacks run the
single-precision drivers.

Determinism: the sampler seeded per tile (:func:`tile_seed` of
:attr:`CompressionBackend.seed` and the tile's coordinates) produces
bit-identical factors for a given input, so parallel matrix assembly is
reproducible across worker counts.
"""

from __future__ import annotations

import threading

import numpy as np

from .. import obs
from ..utils.exceptions import ConfigurationError
from ..utils.validation import check_matrix
from .compression import (
    RecompressionResult,
    TruncationRule,
    truncation_rank,
)
from .blas import geqrf, gesdd, orgqr, sub_abt
from .tiles import LowRankTile, PendingTile

__all__ = [
    "ColumnBlocks",
    "CompressionBackend",
    "SVDBackend",
    "RandomizedSVDBackend",
    "AutoBackend",
    "get_backend",
    "default_backend",
    "tile_seed",
]

#: Strictly-lower-triangle masks (and dtype-matched zeros) so the R
#: extraction can skip ``np.tri`` mask construction on every call.
#: ``np.where(mask, zero, a)`` is exactly ``np.triu``'s implementation.
_TRIU_MASK_CACHE: dict[tuple[int, int], np.ndarray] = {}
_ZERO_BY_CHAR = {"d": np.zeros(1, np.float64), "f": np.zeros(1, np.float32)}


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

    Derived from the base seed (:attr:`CompressionBackend.seed`) and the
    tile coordinates only —
    never from execution order — so a parallel matrix assembly produces
    bit-identical tiles for any worker count.
    """
    return np.random.SeedSequence(entropy=base, spawn_key=(i, j))


# ----------------------------------------------------------------------
# Shared numerical cores
# ----------------------------------------------------------------------
def _svd_compress(a: np.ndarray, rule: TruncationRule) -> LowRankTile:
    """Exact truncated SVD of a dense block (the ``gesdd`` fast path)."""
    u, s, vt = gesdd(a)
    k = truncation_rank(s, rule)
    if k == 0:
        return LowRankTile.zero(*a.shape, dtype=a.dtype)
    root = np.sqrt(s[:k])
    return LowRankTile(u[:, :k] * root, vt[:k].T * root)


def _econ_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Economic QR ``a = Q R``: ``geqrf``, then ``orgqr``, both in place
    (``a``, a scratch buffer of the caller's, is destroyed).

    Handles the wide case (stacked rank exceeding the tile side): with
    ``a`` of shape ``(m, r)`` and ``k = min(m, r)``, returns ``Q`` of
    shape ``(m, k)`` and ``R`` of shape ``(k, r)``.
    """
    m, r = a.shape
    k = min(m, r)
    qr_, tau = geqrf(a, True)
    rmat = _triu_of(qr_[:k, :])
    # R is extracted, so orgqr may expand Q over the factored columns
    return orgqr(qr_[:, :k], tau, overwrite=True), rmat


def _qr_svd_recompress(
    u_stack: np.ndarray,
    v_stack: np.ndarray,
    rule: TruncationRule,
    previous_rank: int,
) -> RecompressionResult:
    """QR-QR-SVD rounding of ``u_stack @ v_stack.T``, in place.

    Dtype-generic: float64 stacks run the ``d``-prefixed LAPACK drivers
    (bitwise identical to the ``scipy.linalg`` wrapper path), float32
    stacks the ``s``-prefixed ones, and the rounded tile keeps the
    stack's storage dtype.  The QR factorizations destroy the stacked
    factors, which live in a pooled workspace buffer released right
    after; the stack width is never zero.
    """
    r = u_stack.shape[1]
    m, n = u_stack.shape[0], v_stack.shape[0]
    dtype = u_stack.dtype
    qu, ru = _econ_qr(u_stack)
    qv, rv = _econ_qr(v_stack)
    uc, s, vct = gesdd(ru @ rv.T, overwrite=True)
    k = truncation_rank(s, rule)
    if k == 0:
        tile = LowRankTile.zero(m, n, dtype=dtype)
    else:
        root = np.sqrt(s[:k])
        tile = LowRankTile((qu @ uc[:, :k]) * root, (qv @ vct[:k].T) * root)
    return RecompressionResult(
        tile, rank_before=r, rank_after=k, grew=k > previous_rank
    )


def _subtract_products(block, us, vs, ws: "_StackWorkspace") -> np.ndarray:
    """``block -= Σ_j us[j] @ vs[j].T`` in place, in the block's dtype.

    Every GEMM is in place (:func:`~repro.linalg.blas.sub_abt`): a product
    as wide as the tile goes in on its own factors, and consecutive
    narrower ones are packed side by side into one workspace buffer of at
    most ``min(m, n)`` columns per GEMM — one narrow GEMM per product
    would re-read and re-write the whole block for a few columns.
    """
    m, n = block.shape
    cap = min(m, n)
    buf, packed = None, 0
    try:
        for u, v in zip(us, vs):
            w = u.shape[1]
            if w >= cap:
                sub_abt(block, u, v)
                continue
            if buf is None:
                buf = ws.acquire((m + n) * cap, block.dtype)
                # F-ordered, so the packed leading columns are contiguous
                pu = buf[: m * cap].reshape(cap, m).T
                pv = buf[m * cap : (m + n) * cap].reshape(cap, n).T
            if packed + w > cap:
                sub_abt(block, pu[:, :packed], pv[:, :packed])
                packed = 0
            pu[:, packed : packed + w] = u
            pv[:, packed : packed + w] = v
            packed += w
        if packed:
            sub_abt(block, pu[:, :packed], pv[:, :packed])
    finally:
        if buf is not None:
            ws.release(buf)
    return block


class ColumnBlocks(tuple):
    """The column blocks ``(X_1, …, X_p)`` of an update factor, standing
    for ``np.hstack`` of them (whose ``shape`` it reports) without forming
    it: the factors of every panel product of a fused update."""

    @classmethod
    def of(cls, factor) -> "ColumnBlocks":
        """``factor`` itself, or a one-block view of an array."""
        return factor if isinstance(factor, cls) else cls((factor,))

    @property
    def shape(self) -> tuple[int, int]:
        return self[0].shape[0], sum(x.shape[1] for x in self)


class _StackWorkspace:
    """Grow-only scratch buffers for the recompression stacks (and the
    packed products of a dense sum).

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
    """What the three compressor classes share.

    Subclasses provide :meth:`compress`; recompression is the shared
    QR-QR-SVD rounding with a reusable stack workspace.
    """

    #: Name of the route (``"svd"``, ``"rsvd"``, ``"auto"``).
    name: str = "base"
    #: Base entropy of every per-tile seed (:func:`tile_seed`); the exact
    #: route ignores it.
    seed: int = 2021

    def __init__(self) -> None:
        self._workspace: _StackWorkspace | None = None

    # -- compression ---------------------------------------------------
    def compress(
        self, a: np.ndarray, rule: TruncationRule, *, seed=None, rank_hint=None
    ) -> LowRankTile:
        """Compress a dense block to a :class:`LowRankTile` under ``rule``.

        ``seed`` (an int or :class:`numpy.random.SeedSequence`) pins the
        randomness of the sampler; ``rank_hint`` is the rank the caller
        expects (a rounding passes the tile's rank before the update) and
        sizes its first sample.  The exact route ignores both.
        """
        raise NotImplementedError

    # -- recompression -------------------------------------------------
    def recompress_update(
        self,
        c: LowRankTile | PendingTile,
        u_upd: np.ndarray | ColumnBlocks,
        v_upd: np.ndarray | ColumnBlocks,
        rule: TruncationRule,
        *,
        seed=None,
    ) -> RecompressionResult:
        """Round ``C - u_upd @ v_upd.T`` once, in the smaller representation.

        ``u_upd``/``v_upd`` hold every pending update of the tile side by
        side (one panel product or all of them — the kernel does not
        care): arrays, or :class:`ColumnBlocks` of the products' factors
        that stand for their ``hstack`` without forming it.  The
        accumulated width is ``W = c.rank + u_upd.shape[1]``, and the sum
        is rounded in whichever form has fewer elements:

        * ``W < min(m, n) / 2`` — the stacked factors, ``(m + n)·W``
          elements, packed block by block into the reusable workspace:
          QR-QR-SVD in place on it;
        * otherwise — the dense ``m x n`` sum, handed to :meth:`compress`
          with ``rank_hint=c.rank`` (exact SVD or ARA;
          ``seed`` pins the latter, callers pass :func:`tile_seed` of the
          destination).  The sum is accumulated into the tile's block by
          in-place ``dgemm``/``sgemm`` calls with the interpreter lock
          released (:func:`~repro.linalg.blas.sub_abt`): a product as
          wide as the tile on its own factors, narrower ones packed up to
          ``min(m, n)`` columns per call into a workspace buffer.  No
          stack of all the products, no product temporary; a factor is
          cast to the block's dtype while it is packed, or on its own
          when it is as wide as the tile.

        The rounding runs in the *destination tile's* storage dtype: an
        fp32 tile is packed or summed, and returned, in single precision
        (the update factors are cast), an fp64 tile in double.  A tile is
        fp32 only when its ε clears :data:`~repro.linalg.precision.FP32_EPS_FLOOR`,
        so the lower-precision rounding stays within its error budget.

        A :class:`~repro.linalg.tiles.PendingTile` ``c`` takes the dense
        path whatever the width, with its generated block in place of
        ``c.u @ c.v.T``, and is born from the updated block
        (:meth:`PendingTile.born <repro.linalg.tiles.PendingTile.born>`):
        generated in float64 and cast once to the dtype it is formed in,
        then updated and compressed once, unhinted, in its storage dtype,
        or kept as a float64 :class:`~repro.linalg.tiles.DenseTile`
        (``rank_after`` 0: nothing was truncated); never a rank growth.
        """
        pending = isinstance(c, PendingTile)
        us_upd, vs_upd = ColumnBlocks.of(u_upd), ColumnBlocks.of(v_upd)
        kc = c.rank
        r = kc + us_upd.shape[1]
        m, n = c.shape
        dtype = c.dtype
        if r == 0 and not pending:
            return RecompressionResult(
                LowRankTile.zero(m, n, dtype=dtype), 0, 0, grew=False
            )
        if self._workspace is None:
            self._workspace = _StackWorkspace()
        ws = self._workspace
        if pending or 2 * r >= min(m, n):
            # Wide: the dense sum is the smaller representation.
            def updated(block):
                return _subtract_products(block, us_upd, vs_upd, ws)

            def compress(block):
                tile = self.compress(
                    block, rule, seed=seed, rank_hint=None if pending else kc
                )
                # the exact oracle rounds fp32 in fp64
                return tile if tile.dtype == dtype else tile.astype(dtype)

            if pending:
                generated = c.to_dense()
                tile = c.born(
                    lambda dt: updated(generated.astype(dt, copy=False)), compress
                )
            else:
                tile = compress(updated(c.u @ c.v.T))
            lowrank = isinstance(tile, LowRankTile)
            result = RecompressionResult(
                tile, rank_before=r, rank_after=tile.rank if lowrank else 0,
                grew=not pending and tile.rank > kc,
            )
        else:
            buf = ws.acquire((m + n) * r, dtype)
            # Viewed transposed so the stacks are F-contiguous: the
            # in-place geqrf/orgqr calls then factor the workspace
            # directly instead of f2py copying a C-order stack.
            us = buf[: m * r].reshape(r, m).T
            vs = buf[m * r : (m + n) * r].reshape(r, n).T
            try:
                us[:, :kc] = c.u
                vs[:, :kc] = c.v
                col = kc
                for u, v in zip(us_upd, vs_upd):
                    w = u.shape[1]
                    us[:, col : col + w] = u
                    np.multiply(v, -1.0, out=vs[:, col : col + w])
                    col += w
                with obs.span("recompress", "recompress", backend=self.name):
                    result = _qr_svd_recompress(us, vs, rule, kc)
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

    #: Columns sampled per adaptive round.  With a ``rank_hint`` the first
    #: round samples ``rank_hint + BLOCK_SIZE // 2`` instead.
    BLOCK_SIZE = 16
    #: When the hinted or sampled rank reaches this fraction of
    #: ``min(m, n)`` the exact SVD takes over (see :class:`AutoBackend`).
    FALLBACK_FRACTION = 1.0 / 3.0
    #: Tiles with ``min(m, n)`` at or below this skip the sampler entirely
    #: (LAPACK wins on small tiles).
    MIN_EXACT_DIM = 64
    #: Gaussian probe vectors of the spectral residual estimate.
    PROBES = 3
    #: Power iterations applied to the probes (2 keeps the estimate tight
    #: on the flat Matérn tails).
    PROBE_ITERS = 2

    def _max_rank(self, mn: int) -> int:
        """The hinted or sampled rank at which a tile of side ``mn`` goes exact."""
        if mn <= self.MIN_EXACT_DIM:
            return 0
        return max(int(self.FALLBACK_FRACTION * mn), 1)

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
        self, a: np.ndarray, rule: TruncationRule, seed, rank_hint,
        _max_rank: int | None = None,
    ) -> LowRankTile:
        """The adaptive range-finder body (see class docstring).

        ``_max_rank`` overrides the sampled rank at which the tile goes
        exact: the compression ablation passes ``min(m, n)`` to sample at
        every rank.
        """
        m, n = a.shape
        mn = min(m, n)
        dtype = a.dtype
        max_rank = self._max_rank(mn) if _max_rank is None else _max_rank
        rank_cap = mn if rule.maxrank is None else min(rule.maxrank, mn)
        rng = np.random.default_rng(self.seed if seed is None else seed)

        fro2 = float(np.einsum("ij,ij->", a, a, dtype=np.float64))
        if fro2 == 0.0:
            return LowRankTile.zero(m, n, dtype=dtype)
        floor = 4.0 * np.sqrt(np.finfo(dtype).eps * fro2)  # of the gate below

        # First block: the hinted rank plus half a block of oversampling
        # (a certified basis needs a few columns past the truncation rank).
        p = self.BLOCK_SIZE
        if rank_hint is not None:
            p = max(min(rank_hint, rank_cap) + p // 2, 1)
        kcap = min(max(max_rank, p) + self.BLOCK_SIZE, mn)
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
            qb, _ = _econ_qr(y)
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
            p = self.BLOCK_SIZE

        # SVD of Bᵀ: the C-order (k, n) projection *is* an F-order (n, k)
        # array, the tall orientation gesdd handles fastest, copy-free.
        vb, s, ubt = gesdd(b_proj[:k].T, overwrite=True)
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
        x = rng.standard_normal((a.shape[1], self.PROBES), dtype=a.dtype)
        x = a @ x - q_basis @ (b_proj @ x)
        est = 0.0
        for _ in range(self.PROBE_ITERS):
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
    (:attr:`RandomizedSVDBackend.FALLBACK_FRACTION`), where sampling still wins by
    a third, because a rounding's hint overshoots its output rank by up
    to 26 and a blind sample grown to b/3 has spent most of a ``gesdd``.
    Tiles of ``min(m, n)`` ≤ :attr:`RandomizedSVDBackend.MIN_EXACT_DIM`
    are exact.
    """

    name = "auto"

    #: ``(ε, b)`` rows: an unhinted block is sampled when some row has
    #: ``rule.eps >= ε`` and ``min(m, n) >= b``.
    SAMPLE_FROM = ((1e-4, 100), (1e-6, 250))

    def __init__(self) -> None:
        super().__init__()
        self._svd = SVDBackend()
        self._rsvd = RandomizedSVDBackend()

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


def get_backend(name: str) -> CompressionBackend:
    """The shared instance of the class registered under ``name``."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown compression backend {name!r}; "
            f"available: {sorted(_BACKENDS)}"
        ) from None
    if name not in _instances:
        _instances[name] = cls()
    return _instances[name]


def default_backend() -> CompressionBackend:
    """The library's one compressor: ``get_backend("auto")``'s instance."""
    return get_backend(AutoBackend.name)
