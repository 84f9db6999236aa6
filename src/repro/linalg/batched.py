"""Multi-RHS column stacking, and a per-item kernel runner.

:func:`stack_rhs` and :func:`split_solution` marshal many right-hand
sides against one factor into a single substitution sweep: the solver
service's batched solves (:func:`repro.core.solve.solve_many`) run on
them.

:func:`run_batch` runs each :class:`BatchItem` — one task in
executor-agnostic form — through the ordinary
:mod:`~repro.linalg.hcore` kernel.  No executor calls it; the end-to-end
benchmark's tracer still wraps it by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.exceptions import KernelError
from . import hcore
from .compression import RecompressionResult, TruncationRule
from .flops import FlopCounter
from .tiles import LowRankTile, Tile

__all__ = [
    "BatchItem",
    "BatchResult",
    "run_batch",
    "stack_rhs",
    "split_solution",
]


@dataclass
class BatchItem:
    """One task in executor-agnostic form.

    ``ref`` is opaque to this module; ``op`` is ``"potrf" | "trsm" |
    "syrk" | "gemm"``; ``tiles`` are the operand tiles in kernel order
    with the destination last — ``(c,)``, ``(l, c)``, ``(a, c)``, ``(a,
    b, c)`` respectively (``a`` and ``b`` are lists of tiles for a fused
    multi-panel GEMM, whose destination is low-rank).  ``index`` carries
    the destination tile coordinates, for diagnostics.
    """

    ref: object
    op: str
    tiles: tuple
    index: tuple | None = None


@dataclass
class BatchResult:
    """Outcome for one item: the produced tile (``None`` for in-place
    POTRF/SYRK) and the recompression result for low-rank GEMM
    destinations."""

    ref: object
    out: Tile | None
    recomp: RecompressionResult | None


def _run_single(
    item: BatchItem,
    rule: TruncationRule,
    counter: FlopCounter | None,
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
    out, _, recomp = hcore.gemm_auto(a, b, c, rule, counter=counter)
    return BatchResult(item.ref, out, recomp)


# Kept for the end-to-end benchmark's tracer, which wraps it by name.
def run_batch(
    group: list[BatchItem],
    rule: TruncationRule,
    *,
    counter: FlopCounter | None = None,
) -> list[BatchResult]:
    """Run each item through the ordinary kernel; results align with the
    input order."""
    return [_run_single(item, rule, counter) for item in group]


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
