"""Batched same-shape kernel execution (H2OPUS-TLR style marshaling).

H2OPUS-TLR (PAPERS.md, 2108.11932) gets its GPU throughput by
*marshaling* same-shape low-rank operations into batched kernel calls
instead of dispatching them one tile at a time.  This module is that
marshaling layer for the Table-I kernels:

* :class:`BatchItem` wraps one ready task (an opaque ``ref`` plus its
  operand tiles) in executor-agnostic form;
* :class:`BatchPlanner` keys ready tasks into shape buckets — same
  kernel class, same operand shapes/ranks/dtypes — and ``None`` for
  everything unbatchable;
* :func:`run_batch` executes one group: singletons run the ordinary
  :mod:`~repro.linalg.hcore` kernel, larger groups run a *stacked*
  formulation — one 3-D ``np.matmul`` per product stage of the
  GEMM/SYRK variants.

What is guaranteed: a factorization is bitwise identical with batching
on or off, because only the ``matmul`` classes (SYRK, and GEMM with a
low-rank operand) are stacked.  A batched ``matmul`` runs one ``gemm``
per slice on that slice's data alone, so each tile gets bit-for-bit the
result of a solo call.  The triangular solves are deliberately **not** stacked: a
multi-RHS ``trtrs`` does not treat right-hand-side columns independently
(OpenBLAS blocks TRSM over the columns, so a tile's solution depends on
its neighbours in the stack — 113 tiles differed by up to 2e-15 at
N=1600/b=50/band 2 when a panel's TRSMs were solved as one stack).  Nor
is the all-dense GEMM: it accumulates into its tile in place
(:func:`~repro.linalg.hcore.gemm_dense`), which a stacked product and a
subtraction would match only while the BLAS K-block covers b.  The
differential test in ``tests/test_executor.py`` enforces the identity
across worker counts, schedulers, batch modes and resumed runs.

What it buys: nothing on a pinned CPU.  With BLAS at one thread
(N=3200/b=200/eps=1e-4/band 2, best of 5) the reference loops take
546 ms, the core at one worker 572 ms plain and 576 ms batched, at
two workers 584 and 577 ms; at N=1600 batched is 3% faster than
plain at b=100 and 6% slower at b=50.  The marshaling gain belongs to
devices with a per-launch cost that NumPy-over-BLAS on a CPU does not
have.

What batches and what does not:

===============  =====================================================
kernel           batch key (beyond the kernel class)
===============  =====================================================
POTRF            never batched (one per panel, on the critical path)
TRSM             never batched (a stacked ``trtrs`` is not bitwise)
SYRK (dense A)   A shape
SYRK (lr A)      A shape + rank + dtype
GEMM (all-dense) never batched — one in-place ``dgemm`` into the tile
GEMM (lr,lr→d)   A/B shapes + ranks + dtypes
GEMM (lr,d→d)    shapes + lr side + rank + dtype
GEMM (→ lr C)    never batched — a fused low-rank-destination GEMM is
                 one task per tile that already carries every panel
                 product and rounds once at its own accumulated width:
                 there is nothing left to stack
===============  =====================================================

Flop accounting: a batched group reports the summed Table-I flops of its
``k`` members with ``count=k`` (:meth:`FlopCounter.add
<repro.linalg.flops.FlopCounter.add>`), so per-kernel-class totals and
invocation counts are identical across batch modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.exceptions import KernelError
from . import hcore
from .compression import RecompressionResult, TruncationRule
from .flops import (
    FlopCounter,
    KernelClass,
    flops_gemm_dense_lrd,
    flops_gemm_dense_lrlr,
    flops_syrk_dense,
    flops_syrk_lr,
)
from .hcore import _count
from .tiles import DenseTile, LowRankTile, Tile

__all__ = [
    "BatchItem",
    "BatchResult",
    "BatchPlanner",
    "run_batch",
    "stack_rhs",
    "split_solution",
]


@dataclass
class BatchItem:
    """One ready task in executor-agnostic form.

    ``ref`` is opaque to this module (the executors pass task ids);
    ``op`` is ``"potrf" | "trsm" | "syrk" | "gemm"``; ``tiles`` are the
    operand tiles in kernel order with the destination last —
    ``(c,)``, ``(l, c)``, ``(a, c)``, ``(a, b, c)`` respectively (``a``
    and ``b`` are lists of tiles for a fused multi-panel GEMM, whose
    destination is low-rank).  ``index`` carries the destination tile
    coordinates: diagnostics, and the seed of a randomized rounding.
    """

    ref: object
    op: str
    tiles: tuple
    index: tuple | None = None


@dataclass
class BatchResult:
    """Outcome for one item: the produced tile (``None`` for in-place
    POTRF/SYRK, matching the executors' compute/commit contract) and the
    recompression result for low-rank GEMM destinations."""

    ref: object
    out: Tile | None
    recomp: RecompressionResult | None


class BatchPlanner:
    """Partitions a drained ready set into same-shape kernel buckets.

    Parameters
    ----------
    min_batch:
        Buckets smaller than this dissolve into singletons (a stacked
        call for one tile only adds copies).
    max_batch:
        Buckets larger than this split into chunks, bounding both the
        stack workspace and — in the execution core — how much work a
        single worker claims at once.
    max_copy_bytes:
        Per-item ceiling on the bytes the stacked formulation has to
        *copy into the stack*.  CPU batching trades an input memcpy for
        saved per-call dispatch; for low-rank factors (tens of KB) the
        dispatch saving wins, but stacking full dense tiles copies more
        than the calls cost.  Items whose stack-copy footprint exceeds
        this run solo — which is why dense-operand classes stop batching
        as the tile size grows while the rank-bearing classes keep going.
    """

    def __init__(
        self,
        min_batch: int = 2,
        max_batch: int = 32,
        max_copy_bytes: int = 65536,
    ) -> None:
        if min_batch < 2 or max_batch < min_batch:
            raise KernelError(
                f"need 2 <= min_batch <= max_batch, got "
                f"{min_batch}/{max_batch}"
            )
        self.min_batch = min_batch
        self.max_batch = max_batch
        self.max_copy_bytes = max_copy_bytes

    def key(self, item: BatchItem) -> tuple | None:
        """Bucket key for an item, or ``None`` when it must run solo.

        Keys encode everything the stacked formulations require to be
        uniform: kernel class, operand shapes, low-rank ranks, storage
        dtypes.  POTRF, TRSM and the all-dense GEMM always run solo (the
        module docstring says why).
        """
        op, tiles = item.op, item.tiles
        cap = self.max_copy_bytes
        if op in ("potrf", "trsm"):
            return None
        if op == "syrk":
            a, _c = tiles
            if isinstance(a, DenseTile):
                if a.data.nbytes > cap:
                    return None
                return ("syrk_d", a.shape)
            if a.u.nbytes + a.v.nbytes > cap:
                return None
            return ("syrk_lr", a.shape, a.rank, a.dtype.char)
        if op == "gemm":
            a, b, c = tiles
            if isinstance(c, LowRankTile) or isinstance(a, list):
                # One rounding per destination (or, for a densified
                # destination, a multi-panel update whose order is its
                # bits): nothing to stack.
                return None
            a_lr, b_lr = isinstance(a, LowRankTile), isinstance(b, LowRankTile)
            if not a_lr and not b_lr:
                return None
            if a_lr and b_lr:
                if (
                    a.u.nbytes + a.v.nbytes + b.u.nbytes + b.v.nbytes
                ) > cap:
                    return None
                return (
                    "gemm_dll", a.shape, b.shape, a.rank, b.rank,
                    a.dtype.char, b.dtype.char,
                )
            lr, dn = (a, b) if a_lr else (b, a)
            if dn.data.nbytes + lr.u.nbytes + lr.v.nbytes > cap:
                return None
            return (
                "gemm_dld", a.shape, b.shape, a_lr, lr.rank, lr.dtype.char
            )
        raise KernelError(f"unknown batch op {op!r}")

    def partition(self, items: list[BatchItem]) -> list[list[BatchItem]]:
        """Group items into executable batches, preserving first-seen
        order between groups and input order within each group."""
        groups: list[list[BatchItem]] = []
        buckets: dict[tuple, list[BatchItem]] = {}
        order: list[tuple | None] = []  # None marks a singleton placeholder
        singles: list[BatchItem] = []
        for item in items:
            k = self.key(item)
            if k is None:
                order.append(None)
                singles.append(item)
            else:
                if k not in buckets:
                    buckets[k] = []
                    order.append(k)
                buckets[k].append(item)
        singles_it = iter(singles)
        for k in order:
            if k is None:
                groups.append([next(singles_it)])
                continue
            bucket = buckets[k]
            if len(bucket) < self.min_batch:
                groups.extend([it] for it in bucket)
                continue
            for off in range(0, len(bucket), self.max_batch):
                chunk = bucket[off : off + self.max_batch]
                if len(chunk) >= self.min_batch:
                    groups.append(chunk)
                else:
                    groups.extend([it] for it in chunk)
        return groups


# ----------------------------------------------------------------------
# Stacked kernel bodies
# ----------------------------------------------------------------------
def _batch_syrk_dense(items, counter) -> None:
    """Stacked ``C_i -= A_i A_i^T`` via one 3-D matmul."""
    a_stack = np.stack([item.tiles[0].data for item in items])
    upd = np.matmul(a_stack, a_stack.transpose(0, 2, 1))
    total = 0.0
    for i, item in enumerate(items):
        c = item.tiles[1]
        c.data -= upd[i]
        total += flops_syrk_dense(c.shape[0])
    _count(counter, KernelClass.SYRK_DENSE, total, count=len(items))


def _batch_syrk_lr(items, counter) -> None:
    """Stacked ``C_i -= U_i (V_i^T V_i) U_i^T`` (equal ranks by key)."""
    rank = items[0].tiles[0].rank
    total = sum(
        flops_syrk_lr(item.tiles[1].shape[0], rank) for item in items
    )
    if rank > 0:
        us = np.stack([item.tiles[0].u for item in items])
        vs = np.stack([item.tiles[0].v for item in items])
        w = np.matmul(vs.transpose(0, 2, 1), vs)
        x = np.matmul(us, w)
        upd = np.matmul(x, us.transpose(0, 2, 1))
        for i, item in enumerate(items):
            item.tiles[1].data -= upd[i]
    _count(counter, KernelClass.SYRK_LR, total, count=len(items))


def _batch_gemm_dense_lrlr(items, counter) -> None:
    """Stacked ``C_i -= U_{A,i} (V_{A,i}^T V_{B,i}) U_{B,i}^T``."""
    a0, b0, _ = items[0].tiles
    total = sum(
        flops_gemm_dense_lrlr(item.tiles[2].shape[0], a0.rank, b0.rank)
        for item in items
    )
    if a0.rank > 0 and b0.rank > 0:
        av = np.stack([item.tiles[0].v for item in items])
        bv = np.stack([item.tiles[1].v for item in items])
        au = np.stack([item.tiles[0].u for item in items])
        bu = np.stack([item.tiles[1].u for item in items])
        w = np.matmul(av.transpose(0, 2, 1), bv)
        x = np.matmul(au, w)
        upd = np.matmul(x, bu.transpose(0, 2, 1))
        for i, item in enumerate(items):
            item.tiles[2].data -= upd[i]
    _count(counter, KernelClass.GEMM_DENSE_LRLR, total, count=len(items))


def _batch_gemm_dense_lrd(items, a_is_lr, counter) -> None:
    """Stacked (2)-GEMM: dense C, exactly one low-rank operand."""
    lr0 = items[0].tiles[0] if a_is_lr else items[0].tiles[1]
    rank = lr0.rank
    total = sum(
        flops_gemm_dense_lrd(item.tiles[2].shape[0], rank) for item in items
    )
    if rank > 0:
        if a_is_lr:
            # C_i -= U_{A,i} (B_i V_{A,i})^T
            bs = np.stack([item.tiles[1].data for item in items])
            av = np.stack([item.tiles[0].v for item in items])
            au = np.stack([item.tiles[0].u for item in items])
            w = np.matmul(bs, av)
            upd = np.matmul(au, w.transpose(0, 2, 1))
        else:
            # C_i -= (A_i V_{B,i}) U_{B,i}^T
            as_ = np.stack([item.tiles[0].data for item in items])
            bv = np.stack([item.tiles[1].v for item in items])
            bu = np.stack([item.tiles[1].u for item in items])
            w = np.matmul(as_, bv)
            upd = np.matmul(w, bu.transpose(0, 2, 1))
        for i, item in enumerate(items):
            item.tiles[2].data -= upd[i]
    _count(counter, KernelClass.GEMM_DENSE_LRD, total, count=len(items))


def _run_single(
    item: BatchItem,
    rule: TruncationRule,
    counter: FlopCounter | None,
    backend,
) -> BatchResult:
    """Run one item through the ordinary hcore kernels."""
    op, tiles = item.op, item.tiles
    if op == "potrf":
        hcore.potrf_dense(tiles[0], counter=counter, tile_index=item.index)
        return BatchResult(item.ref, None, None)
    if op == "trsm":
        out = hcore.trsm_auto(tiles[0], tiles[1], counter=counter)
        return BatchResult(item.ref, out, None)
    if op == "syrk":
        hcore.syrk_auto(tiles[0], tiles[1], counter=counter)
        return BatchResult(item.ref, None, None)
    a, b, c = tiles
    if isinstance(a, list) and not isinstance(c, LowRankTile):
        raise KernelError(
            "a fused multi-panel GEMM needs a low-rank destination; dense "
            "destinations take one operand pair per item"
        )
    out, _, recomp = hcore.gemm_auto(
        a, b, c, rule,
        counter=counter, backend=backend, tile_index=item.index,
    )
    return BatchResult(item.ref, out, recomp)


def run_batch(
    group: list[BatchItem],
    rule: TruncationRule,
    *,
    counter: FlopCounter | None = None,
    backend=None,
) -> list[BatchResult]:
    """Execute one planner group; results align with the input order.

    Singleton groups take the ordinary per-tile kernel path; larger
    groups (homogeneous by construction — see :meth:`BatchPlanner.key`)
    run the stacked formulation for their kernel class.
    """
    if len(group) == 1:
        return [_run_single(group[0], rule, counter, backend)]
    op = group[0].op
    if op == "syrk":
        if isinstance(group[0].tiles[0], DenseTile):
            _batch_syrk_dense(group, counter)
        else:
            _batch_syrk_lr(group, counter)
        return [BatchResult(item.ref, None, None) for item in group]
    if op == "gemm":
        a, b, _c = group[0].tiles
        a_lr, b_lr = isinstance(a, LowRankTile), isinstance(b, LowRankTile)
        if a_lr and b_lr:
            _batch_gemm_dense_lrlr(group, counter)
        else:
            _batch_gemm_dense_lrd(group, a_lr, counter)
        return [
            BatchResult(item.ref, item.tiles[2], None) for item in group
        ]
    raise KernelError(f"op {op!r} cannot run as a batch")


# ----------------------------------------------------------------------
# Multi-RHS column stacking (the solve-side marshaling primitive)
# ----------------------------------------------------------------------
def stack_rhs(rhs_list) -> tuple[np.ndarray, list[int]]:
    """Stack right-hand sides column-wise into one multi-RHS array.

    The solve-side marshaling primitive: ``k`` vectors (or multi-column
    blocks) against the *same* factor become one ``(n, Σwidths)`` float64
    array, so every ``solve_triangular`` call in the substitution carries
    all pending columns at once.  Each caller's slice of the stacked
    solution matches a standalone solve to rounding, not bitwise — BLAS
    blocks TRSM over the right-hand-side columns.

    Returns the stacked array and the per-input column widths for
    :func:`split_solution`.
    """
    cols = []
    widths = []
    for rhs in rhs_list:
        arr = np.asarray(rhs, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        elif arr.ndim != 2:
            raise KernelError(
                f"rhs must be a vector or a 2-D column block, got "
                f"ndim={arr.ndim}"
            )
        cols.append(arr)
        widths.append(arr.shape[1])
    if not cols:
        raise KernelError("stack_rhs needs at least one right-hand side")
    return (cols[0] if len(cols) == 1 else np.hstack(cols)), widths


def split_solution(
    stacked: np.ndarray, widths: list[int], rhs_list
) -> list[np.ndarray]:
    """Undo :func:`stack_rhs`: slice the stacked solution per caller.

    Inputs that arrived as 1-D vectors get 1-D solutions back; 2-D
    column blocks keep their shape.
    """
    out = []
    offset = 0
    for rhs, width in zip(rhs_list, widths):
        block = stacked[:, offset:offset + width]
        out.append(block[:, 0] if np.asarray(rhs).ndim == 1 else block)
        offset += width
    return out
