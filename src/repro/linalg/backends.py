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
  grows the sample space in fixed blocks — the first one sized by the
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
first becomes *possible* — the residual ``R = A - QB`` is formed
explicitly, by one GEMM, and its spectral norm is estimated with a few
power-iterated Gaussian probes and compared to ε directly.
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
single-precision drivers — except the exact SVD of a float32 block,
which runs in float64 where the rule's ε does not clear
:data:`FP32_SVD_MARGIN` single-precision roundoffs of the block.

Determinism: the sampler draws no random numbers per call.  Its Gaussian
test matrices are columns of one read-only pool per (tile side, dtype),
drawn once from :attr:`RandomizedSVDBackend.POOL_SEED`: a block takes the
next pool columns and the spectral probes their own fixed ones.  The
factors are then a pure function of the block, the rule and the hint, so
parallel assembly and factorization are bitwise the same at any worker
count, with no seed derived from the tile's coordinates.
"""

from __future__ import annotations

import functools
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


def _as_block(a) -> np.ndarray:
    """``a`` as a 2-D contiguous block to compress: float32 stays float32
    (both routes return float32 factors for it), anything else is
    float64."""
    single = getattr(a, "dtype", None) == np.float32
    return check_matrix("a", a, dtype=np.float32 if single else np.float64)


#: A float32 block's exact SVD runs ``sgesdd`` only where the rule's
#: tolerance is at least this many float32 roundoffs of the block,
#: ``eps32 * ||A||_F``; a tighter one runs ``dgesdd`` on the block and
#: casts the factors back.  ``sgesdd``'s reconstruction error reaches
#: ~30 of them on Matérn tiles (1.35e-6 on a 200 x 200 tile of
#: ``||A||_2`` 1.7, ``dgesdd``'s 1.6e-14): below 32 such roundoffs a
#: quarter to all of the truncations miss ε, above it none did.
FP32_SVD_MARGIN = 64


def _svd_dtype(a: np.ndarray, rule: TruncationRule) -> np.dtype:
    """The dtype :func:`_svd_compress` runs ``gesdd`` in: the block's,
    unless it is float32 and the rule's tolerance does not clear
    :data:`FP32_SVD_MARGIN` float32 roundoffs of it.  A relative rule's
    tolerance ``ε·σ₁`` is bounded below by ``ε·||A||_F / sqrt(min(m, n))``."""
    if a.dtype != np.float32:
        return a.dtype
    floor = FP32_SVD_MARGIN * float(np.finfo(np.float32).eps)
    if rule.relative:
        single = rule.eps >= floor * np.sqrt(min(a.shape))
    else:
        fro = np.sqrt(np.einsum("ij,ij->", a, a, dtype=np.float64))
        single = rule.eps >= floor * fro
    return a.dtype if single else np.dtype(np.float64)


# ----------------------------------------------------------------------
# Shared numerical cores
# ----------------------------------------------------------------------
def _svd_compress(a: np.ndarray, rule: TruncationRule) -> LowRankTile:
    """Exact truncated SVD of a dense block (the ``gesdd`` fast path), in
    :func:`_svd_dtype`; the factors keep the block's dtype."""
    dtype = a.dtype
    u, s, vt = gesdd(a.astype(_svd_dtype(a, rule), copy=False))
    k = truncation_rank(s, rule)
    if k == 0:
        return LowRankTile.zero(*a.shape, dtype=dtype)
    root = np.sqrt(s[:k])
    return LowRankTile(
        (u[:, :k] * root).astype(dtype, copy=False),
        (vt[:k].T * root).astype(dtype, copy=False),
    )


def _residual(a: np.ndarray, q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The explicit residual ``A - Q B`` of a range-finder basis ``Q`` and
    projection ``B = QᵀA``: one copy of ``A`` and one in-place GEMM
    (:func:`~repro.linalg.blas.sub_abt`), in ``A``'s dtype."""
    resid = np.array(a, order="C")
    sub_abt(resid, q, b.T)
    return resid


def _econ_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Economic QR ``a = Q R``: ``geqrf``, then ``orgqr``, both in place
    (``a``, a scratch buffer of the caller's, is destroyed).

    Handles the wide case (stacked rank exceeding the tile side): with
    ``a`` of shape ``(m, r)`` and ``k = min(m, r)``, returns ``Q`` of
    shape ``(m, k)`` and ``R`` of shape ``(k, r)``.  ``Q`` is ``a``
    itself when ``a`` is Fortran-contiguous and writeable with ``r <= m``
    (else a copy, as :func:`~repro.linalg.blas.geqrf` makes one).
    """
    m, r = a.shape
    k = min(m, r)
    qr_, tau = geqrf(a, True)
    rmat = _triu_of(qr_[:k, :])
    # R is extracted, so orgqr may expand Q over the factored columns
    return orgqr(qr_ if k == r else qr_[:, :k], tau, overwrite=True), rmat


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

    def __init__(self) -> None:
        self._workspace: _StackWorkspace | None = None

    # -- compression ---------------------------------------------------
    def compress(
        self, a: np.ndarray, rule: TruncationRule, *, rank_hint=None
    ) -> LowRankTile:
        """Compress a dense block to a :class:`LowRankTile` under ``rule``,
        in the block's dtype (float32, else float64).

        ``rank_hint`` is the rank the caller expects (a rounding passes
        the tile's rank before the update, a birth the rank the tile had
        in the previous MLE step) and sizes the sampler's first block;
        the exact route ignores it.
        """
        raise NotImplementedError

    # -- recompression -------------------------------------------------
    def recompress_update(
        self,
        c: LowRankTile | PendingTile,
        u_upd: np.ndarray | ColumnBlocks,
        v_upd: np.ndarray | ColumnBlocks,
        rule: TruncationRule,
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
          with ``rank_hint=c.rank`` (exact SVD or ARA).  The sum is
          accumulated into the tile's block by
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
        then updated and compressed once in its storage dtype — hinted by
        the recipe's ``hint``, the rank the tile had in the previous MLE
        step, when it has one — or kept as a float64
        :class:`~repro.linalg.tiles.DenseTile` (``rank_after`` 0: nothing
        was truncated); never a rank growth.
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
                return self.compress(
                    block, rule, rank_hint=c.hint if pending else kc
                )

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
        self, a: np.ndarray, rule: TruncationRule, *, rank_hint=None
    ) -> LowRankTile:
        a = _as_block(a)
        with obs.span("compress", "compress", backend=self.name):
            tile = _svd_compress(a, rule)
        obs.histogram_observe("tile_rank", tile.rank, stage="compress")
        return tile


@functools.cache
def gaussian_pool(n: int, char: str, width: int) -> np.ndarray:
    """The read-only ``n x width`` Gaussian pool of blocks with ``n``
    columns in dtype ``char``, Fortran-ordered (a run of columns is
    contiguous).  Drawn once from :attr:`RandomizedSVDBackend.POOL_SEED`,
    so a pure function of its arguments; the pools of one ``(n, char)``
    share their leading columns (the generator fills them in order), so
    a wider one only adds columns."""
    rng = np.random.default_rng(RandomizedSVDBackend.POOL_SEED)
    draw = rng.standard_normal((width, n), dtype=np.dtype(char))
    draw.flags.writeable = False
    return draw.T


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

    ``Ω`` is never drawn per call: block ``[k, k + p)`` is the columns
    ``PROBES + k … PROBES + k + p`` of the read-only Gaussian pool of the
    block's column count and dtype (:func:`gaussian_pool`), and the
    spectral probes are its first :attr:`PROBES` columns.  The pool
    reaches ``2·BLOCK_SIZE`` columns past the rank at which the tile goes
    exact, as far as a compression can sample (the ablation's
    ``_max_rank`` override takes a pool as wide as the tile).
    """

    name = "rsvd"

    #: Columns sampled per adaptive round.  With a ``rank_hint`` the first
    #: round samples ``rank_hint + BLOCK_SIZE`` instead.
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
    #: Seed of every Gaussian pool (:func:`gaussian_pool`).
    POOL_SEED = 2021

    def _max_rank(self, mn: int) -> int:
        """The hinted or sampled rank at which a tile of side ``mn`` goes exact."""
        if mn <= self.MIN_EXACT_DIM:
            return 0
        return max(int(self.FALLBACK_FRACTION * mn), 1)

    def compress(
        self, a: np.ndarray, rule: TruncationRule, *, rank_hint=None
    ) -> LowRankTile:
        a = _as_block(a)
        with obs.span("compress", "compress", backend=self.name):
            if (rank_hint or 0) < self._max_rank(min(a.shape)):
                tile = self._compress_ara(a, rule, rank_hint)
            else:
                tile = _svd_compress(a, rule)
        obs.histogram_observe("tile_rank", tile.rank, stage="compress")
        return tile

    def _compress_ara(
        self, a: np.ndarray, rule: TruncationRule, rank_hint,
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

        fro2 = float(np.einsum("ij,ij->", a, a, dtype=np.float64))
        if fro2 == 0.0:
            return LowRankTile.zero(m, n, dtype=dtype)
        floor = 4.0 * np.sqrt(np.finfo(dtype).eps * fro2)  # of the gate below

        # First block: the hinted rank plus a block of oversampling (a
        # certified basis needs columns past the truncation rank: with
        # half a block, 40 % of an MLE step's hinted births failed their
        # certificate and sampled a second block).
        p = self.BLOCK_SIZE
        if rank_hint is not None:
            p += min(rank_hint, rank_cap)
        kcap = min(max(max_rank, p) + self.BLOCK_SIZE, mn)
        wide = min(self._max_rank(n) + 2 * self.BLOCK_SIZE, n)
        pool = gaussian_pool(
            n, dtype.char, self.PROBES + (wide if kcap <= wide else n)
        )
        q_basis = np.empty((kcap, m), dtype=dtype).T  # F-order: column blocks
        b_proj = np.empty((kcap, n), dtype=dtype)
        captured2 = 0.0
        k = 0
        while True:
            p_eff = min(p, kcap - k)
            omega = pool[:, self.PROBES + k : self.PROBES + k + p_eff]
            # Y = AΩ, sampled into the basis's next columns (as (ΩᵀAᵀ)ᵀ):
            # a Fortran-contiguous block, which the QR factors in place
            y = q_basis[:, k : k + p_eff]
            np.matmul(omega.T, a.T, out=y.T)
            if k:
                qk, bk = q_basis[:, :k], b_proj[:k]
                y -= qk @ (bk @ omega)  # (I - QQᵀ)AΩ via the projected tile
                y -= qk @ (qk.T @ y)  # re-orthogonalize against roundoff
            # y is a Fortran-contiguous, writeable block of at most m
            # columns, so the QR factors it in place and returns it
            q, _ = _econ_qr(y)
            if q is not y:  # LAPACK ran on a copy: the basis is y's columns
                y[...] = q
            bb = np.matmul(y.T, a, out=b_proj[k : k + p_eff])
            captured2 += float(np.einsum("ij,ij->", bb, bb, dtype=np.float64))
            k += p_eff

            tol = rule.eps  # in the rule's own norm
            if rule.relative:
                # σ₁(B) ↑ σ₁(A); cheap on the small projected tile.
                tol *= float(np.linalg.norm(b_proj[:k], 2))
            # ||A - QB||_F² = ||A||_F² - ||B||_F² in exact arithmetic, but
            # the subtraction cancels catastrophically once the tail falls
            # below ~sqrt(eps_mach)·||A||_F, so it is only a cheap *gate*:
            # acceptance always goes through the explicit residual
            # R = A - QB, formed by one GEMM (power probes of ||R||_2 for
            # the spectral rule, ||R||_F for the Frobenius rule).  The gate
            # opens at the rule's threshold or at the dtype's cancellation
            # floor, below which the subtracted value is noise — whichever
            # is larger.
            resid_f = float(np.sqrt(max(fro2 - captured2, 0.0)))
            if rule.norm == "spectral":
                # sqrt(mn-k)·tol is where a spectral residual of tol first
                # becomes possible for this Frobenius tail.
                if resid_f <= max(np.sqrt(mn - k) * tol, floor):
                    resid = _residual(a, q_basis[:, :k], b_proj[:k])
                    if self._spectral_estimate(resid, pool) <= tol:
                        break
            elif resid_f <= max(tol, floor):
                resid = _residual(a, q_basis[:, :k], b_proj[:k])
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
            (q_basis[:, :k] @ ubt[:kk].T) * root,
            np.multiply(vb[:, :kk], root, order="C"),  # gesdd's V is F-ordered
        )

    def _spectral_estimate(self, resid: np.ndarray, pool: np.ndarray) -> float:
        """Power-probe estimate of ``||R||_2`` for an explicit residual ``R``
        (scaled in place).

        ``R`` is first scaled to unit Frobenius norm, so the iterates can
        neither underflow nor overflow: unscaled, the last iterate of a
        float32 residual of norm 1e-5 squares to below the smallest
        float32, and its norm — hence the estimate — reads 0.  Then the
        first :attr:`PROBES` columns of ``pool`` (the block's Gaussian
        pool), driven through :attr:`PROBE_ITERS` power iterations of
        ``RRᵀ`` — two products each — converge onto the residual's top
        singular value (flat residual spectra, the hard case for the
        estimate's accuracy, are exactly the case where every estimate is
        ≈ σ₁ anyway).  The ratio ``||R z|| / ||z||`` of the last iterate
        never exceeds ``||R||_2`` beyond roundoff; the norms are taken
        once, after the last iteration.
        """
        fro = float(np.sqrt(np.einsum("ij,ij->", resid, resid, dtype=np.float64)))
        if fro == 0.0:
            return 0.0
        resid *= resid.dtype.type(1.0 / fro)
        x = resid @ pool[:, : self.PROBES]
        for _ in range(self.PROBE_ITERS):
            z = resid.T @ x
            x = resid @ z
        nz = np.linalg.norm(z, axis=0)
        nx = np.linalg.norm(x, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios = np.where(nz > 0.0, nx / np.where(nz > 0.0, nz, 1.0), 0.0)
        return fro * float(np.max(ratios))


class AutoBackend(CompressionBackend):
    """Per-tile svd/rsvd dispatch: a pure function of shape, rule and hint.

    Measured by ``benchmarks/bench_ablation_compression.py``, BLAS pinned
    to one thread (NT = 12 st-3D-exp).  Unhinted ``rsvd`` over ``svd``::

        ε      b=100  150    200    250    400
        1e-4   1.31x  1.54x  2.14x  2.43x  2.93x
        1e-6   0.84x  0.95x  1.09x  1.20x  1.31x
        1e-8   0.76x  0.81x  0.84x  0.88x  0.95x

    A first compression has no hint and follows :attr:`SAMPLE_FROM`,
    that surface cut where sampling wins by 15 %: ε ≥ 1e-4 from b = 100,
    ε ≥ 1e-6 from b = 250, tighter ε always exact.  A rounding carries
    the tile's rank as hint, and a later MLE step's birth the rank the
    tile had in the last factor; both follow predicted rank over tile size;
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
        self, a: np.ndarray, rule: TruncationRule, *, rank_hint=None
    ) -> LowRankTile:
        a = np.asarray(a)  # dtype untouched: both routes keep float32
        exact = a.ndim != 2 or (
            self.select(a.shape, rule, rank_hint) == self._svd.name
        )
        backend = self._svd if exact else self._rsvd
        return backend.compress(a, rule, rank_hint=rank_hint)


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
