"""Kernel taxonomy and arithmetic-complexity model (Table I of the paper).

Section VI distinguishes six tile *regions* in the BAND-DENSE-TLR matrix
and ten ``(region)-kernel`` combinations.  With band width ``BAND_SIZE``
(number of dense sub-diagonals, diagonal included) and the band predicate
``on_band(m, n) := m - n < BAND_SIZE``, the update kernels of a
right-looking Cholesky classify as follows (``C = A[m,n]``, ``A = A[m,k]``,
``B = A[n,k]``, with ``k < n <= m``; note ``n - k <= m - k`` forces
*A dense ⇒ B dense* and *C low-rank ⇒ A low-rank*):

=======================  =============  ==========  ==========  ==========
kernel                   C              A           B           Table I
=======================  =============  ==========  ==========  ==========
(1)-POTRF                dense diag     —           —           b³/3
(1)-TRSM                 dense          —           —           b³
(4)-TRSM                 low-rank       —           —           b²·k
(1)-SYRK                 dense diag     dense       —           b³
(3)-SYRK                 dense diag     low-rank    —           2b²k + 4bk²
(1)-GEMM                 dense          dense       dense       2b³
(2)-GEMM                 dense          low-rank    dense       4b²k
(3)-GEMM (new)           dense          low-rank    low-rank    2b²k + 4bk²
(5)-GEMM (new)           low-rank       low-rank    dense       34bk² + 157k³
(6)-GEMM                 low-rank       low-rank    low-rank    36bk² + 157k³
=======================  =============  ==========  ==========  ==========

The printed Table I is followed literally (same constants) so the
BAND_SIZE auto-tuner reproduces Algorithm 1's decisions.  For kernels with
several operand ranks the paper's single ``k`` is interpreted as the rank
driving each term (documented per formula below).

A global, thread-free :class:`FlopCounter` records *modelled* flops per
kernel class during real executions, which the benchmarks use to report
flop totals (Figs. 6b, 6c, 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..utils.exceptions import KernelError

__all__ = [
    "KernelClass",
    "flops_potrf_dense",
    "flops_trsm_dense",
    "flops_trsm_lr",
    "flops_syrk_dense",
    "flops_syrk_lr",
    "flops_gemm_dense",
    "flops_gemm_dense_lrd",
    "flops_gemm_dense_lrlr",
    "flops_gemm_lr_update_dense",
    "flops_gemm_lr",
    "flops_gemm_lr_general",
    "flops_gemm_lr_dense_general",
    "flops_gemm_lr_fused",
    "kernel_flops",
    "FlopCounter",
    "dense_cholesky_flops",
]


class KernelClass(Enum):
    """The ten ``(region)-kernel`` types of Section VI."""

    POTRF_DENSE = "(1)-POTRF"
    TRSM_DENSE = "(1)-TRSM"
    TRSM_LR = "(4)-TRSM"
    SYRK_DENSE = "(1)-SYRK"
    SYRK_LR = "(3)-SYRK"
    GEMM_DENSE = "(1)-GEMM"
    GEMM_DENSE_LRD = "(2)-GEMM"
    GEMM_DENSE_LRLR = "(3)-GEMM"
    GEMM_LR_DENSE = "(5)-GEMM"
    GEMM_LR = "(6)-GEMM"

    @property
    def is_dense_output(self) -> bool:
        """True when the kernel writes a dense tile."""
        return self in (
            KernelClass.POTRF_DENSE,
            KernelClass.TRSM_DENSE,
            KernelClass.SYRK_DENSE,
            KernelClass.SYRK_LR,
            KernelClass.GEMM_DENSE,
            KernelClass.GEMM_DENSE_LRD,
            KernelClass.GEMM_DENSE_LRLR,
        )

    @property
    def is_band_kernel(self) -> bool:
        """True for region-(1) kernels — the all-dense band, eligible for
        the recursive (nested) formulation of Section VII-D."""
        return self in (
            KernelClass.POTRF_DENSE,
            KernelClass.TRSM_DENSE,
            KernelClass.SYRK_DENSE,
            KernelClass.GEMM_DENSE,
        )


# ----------------------------------------------------------------------
# Table I formulas (flops, double precision, multiply+add counted as 2)
# ----------------------------------------------------------------------
def flops_potrf_dense(b: int) -> float:
    """(1)-POTRF: ``b³/3``."""
    return b**3 / 3.0


def flops_trsm_dense(b: int) -> float:
    """(1)-TRSM: ``b³``."""
    return float(b**3)


def flops_trsm_lr(b: int, k: int) -> float:
    """(4)-TRSM: ``b²·k`` — the triangular solve touches only the V factor."""
    return float(b**2 * k)


def flops_syrk_dense(b: int) -> float:
    """(1)-SYRK: ``b³``."""
    return float(b**3)


def flops_syrk_lr(b: int, k: int) -> float:
    """(3)-SYRK: ``2b²k + 4bk²`` with ``k`` the rank of the panel tile."""
    return float(2 * b**2 * k + 4 * b * k**2)


def flops_gemm_dense(b: int) -> float:
    """(1)-GEMM: ``2b³``."""
    return float(2 * b**3)


def flops_gemm_dense_lrd(b: int, k: int) -> float:
    """(2)-GEMM: ``4b²k`` — dense C, one low-rank operand of rank ``k``."""
    return float(4 * b**2 * k)


def flops_gemm_dense_lrlr(b: int, ka: int, kb: int) -> float:
    """(3)-GEMM: ``2b²k + 4bk²`` — dense C, both operands low-rank.

    With unequal operand ranks the b²-term is driven by the rank of the
    expansion (k_b) and the bk² term by the cross products (k_a·k_b);
    Table I's single-k form is recovered when ``ka == kb``.
    """
    return float(2 * b**2 * kb + 4 * b * ka * kb)


def flops_gemm_lr_update_dense(b: int, k: int) -> float:
    """(5)-GEMM: ``34bk² + 157k³`` — low-rank C, dense B operand.

    The Table I constants bundle the stacked-QR (≈ the 34bk² term) and the
    small-core SVD (≈ the 157k³ term) of the recompression; the rank-k
    product formation against the dense operand is charged to the same
    ``k`` by the paper's model and we follow it literally.
    """
    return float(34 * b * k**2 + 157 * k**3)


def flops_gemm_lr(b: int, k: int) -> float:
    """(6)-GEMM: ``36bk² + 157k³`` — all three tiles low-rank."""
    return float(36 * b * k**2 + 157 * k**3)


def flops_gemm_lr_general(b: int, kc: int, ka: int, kb: int) -> float:
    """Rank-exact cost of (6)-GEMM with heterogeneous operand ranks.

    The update ``U_A (V_A^T V_B) U_B^T`` has rank ``min(ka, kb)``; the
    recompression QRs run on stacks of rank ``r = kc + min(ka, kb)`` and
    the core SVD on an ``r x r`` matrix.  Coefficients are chosen so the
    formula *reduces exactly to Table I's* ``36bk² + 157k³`` when
    ``ka = kb = kc = k`` (up to the small formation terms Table I folds
    in):  ``9 b r² = 36 b k²`` and ``157/8 · r³ = 157 k³`` at ``r = 2k``.

    Used by the graph builders and the executor's counters; Algorithm 1
    keeps the published equal-rank form (the paper's model).
    """
    k_upd = min(ka, kb)
    r = kc + k_upd
    formation = 2.0 * b * ka * kb + 2.0 * b * ka * k_upd
    return formation + 9.0 * b * r * r + (157.0 / 8.0) * r**3


def flops_gemm_lr_dense_general(b: int, kc: int, ka: int) -> float:
    """Rank-exact cost of (5)-GEMM (low-rank C, dense B operand).

    The rank-``ka`` update is formed against the dense operand
    (``2 b² ka``) and recompressed at stacked rank ``r = kc + ka``.
    """
    r = kc + ka
    return 2.0 * b * b * ka + 9.0 * b * r * r + (157.0 / 8.0) * r**3


def flops_gemm_lr_fused(b: int, kc: int, pairs) -> float:
    """Cost of the fused update ``C - Σ_j A_j B_jᵀ`` of a low-rank tile.

    ``pairs`` holds one ``(ka, kb)`` per panel, ``kb=None`` for a dense
    B operand.  Every product is formed at the thinner of its operand
    ranks (the formation terms of the two single-update models above),
    and the sum is rounded **once** at the accumulated width
    ``w = kc + Σ_j min(ka_j, kb_j)``: as stacked factors (QR-QR-SVD,
    ``9bw² + 157/8·w³``) while ``w < b/2``, else as the dense ``b x b``
    sum (``2b²w`` to form it, ``22b³`` for its SVD) — the width rule of
    :meth:`CompressionBackend.recompress_update
    <repro.linalg.backends.CompressionBackend.recompress_update>`.
    With one pair below the width rule this is exactly
    :func:`flops_gemm_lr_general` / :func:`flops_gemm_lr_dense_general`.
    """
    formation = 0.0
    w = kc
    for ka, kb in pairs:
        if kb is None:
            formation += 2.0 * b * b * ka
            w += ka
        else:
            k_upd = min(ka, kb)
            formation += 2.0 * b * ka * kb + 2.0 * b * ka * k_upd
            w += k_upd
    if 2 * w < b:
        return formation + 9.0 * b * w * w + (157.0 / 8.0) * w**3
    return formation + 2.0 * b * b * w + 22.0 * b**3


def kernel_flops(kind: KernelClass, b: int, k: int = 0, k2: int = 0) -> float:
    """Dispatch Table I by kernel class.

    Parameters
    ----------
    kind:
        Kernel class.
    b:
        Tile size.
    k:
        Primary rank (the updating operand's rank); ignored by all-dense
        kernels.
    k2:
        Secondary rank for (3)-GEMM (rank of the B operand); defaults to
        ``k`` when 0.
    """
    if kind is KernelClass.POTRF_DENSE:
        return flops_potrf_dense(b)
    if kind is KernelClass.TRSM_DENSE:
        return flops_trsm_dense(b)
    if kind is KernelClass.TRSM_LR:
        return flops_trsm_lr(b, k)
    if kind is KernelClass.SYRK_DENSE:
        return flops_syrk_dense(b)
    if kind is KernelClass.SYRK_LR:
        return flops_syrk_lr(b, k)
    if kind is KernelClass.GEMM_DENSE:
        return flops_gemm_dense(b)
    if kind is KernelClass.GEMM_DENSE_LRD:
        return flops_gemm_dense_lrd(b, k)
    if kind is KernelClass.GEMM_DENSE_LRLR:
        return flops_gemm_dense_lrlr(b, k, k2 or k)
    if kind is KernelClass.GEMM_LR_DENSE:
        return flops_gemm_lr_update_dense(b, k)
    if kind is KernelClass.GEMM_LR:
        return flops_gemm_lr(b, k)
    raise KernelError(f"unknown kernel class {kind!r}")


def dense_cholesky_flops(n: int) -> float:
    """Classic dense Cholesky flop count ``n³/3`` (reference baseline)."""
    return n**3 / 3.0


@dataclass
class FlopCounter:
    """Accumulates modelled flops per kernel class.

    Used by the executor and the benchmarks to report flop decompositions
    the way Fig. 6(b,c) and Fig. 10 do.
    """

    per_class: dict[KernelClass, float] = field(default_factory=dict)
    per_class_count: dict[KernelClass, int] = field(default_factory=dict)

    def add(self, kind: KernelClass, flops: float, count: int = 1) -> None:
        """Record ``flops`` under kernel class ``kind``.

        ``count`` is the number of *logical* kernel invocations this call
        represents: a batched execution of ``k`` same-shape kernels reports
        their summed flops with ``count=k`` so per-class invocation counts
        (and hence per-task GFLOP/s) stay comparable across batch modes.
        """
        self.per_class[kind] = self.per_class.get(kind, 0.0) + flops
        self.per_class_count[kind] = self.per_class_count.get(kind, 0) + count

    @property
    def total(self) -> float:
        """Total flops across every class."""
        return sum(self.per_class.values())

    def total_for(self, *kinds: KernelClass) -> float:
        """Total flops restricted to the given classes."""
        return sum(self.per_class.get(kind, 0.0) for kind in kinds)

    def merge(self, other: "FlopCounter") -> None:
        """Fold ``other``'s counts into this counter."""
        for kind, fl in other.per_class.items():
            self.per_class[kind] = self.per_class.get(kind, 0.0) + fl
        for kind, ct in other.per_class_count.items():
            self.per_class_count[kind] = self.per_class_count.get(kind, 0) + ct

    def report(self) -> str:
        """Human-readable breakdown, largest class first."""
        lines = ["kernel            flops          tasks"]
        for kind in sorted(self.per_class, key=self.per_class.get, reverse=True):
            lines.append(
                f"{kind.value:<12} {self.per_class[kind]:>14.3e} "
                f"{self.per_class_count.get(kind, 0):>10d}"
            )
        lines.append(f"{'total':<12} {self.total:>14.3e}")
        return "\n".join(lines)
