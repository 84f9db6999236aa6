"""Tile linear algebra: formats, compression, HCORE kernels, flop models."""

from .backends import (
    AutoBackend,
    ColumnBlocks,
    CompressionBackend,
    RandomizedSVDBackend,
    SVDBackend,
    default_backend,
    get_backend,
)
from .compression import (
    RecompressionResult,
    TruncationRule,
    truncation_rank,
)
from .flops import (
    FlopCounter,
    KernelClass,
    dense_cholesky_flops,
    kernel_flops,
)
from .hcore import (
    gemm_auto,
    gemm_dense,
    gemm_dense_lrd,
    gemm_dense_lrlr,
    gemm_lr,
    potrf_dense,
    syrk_auto,
    syrk_dense,
    syrk_lr,
    trsm_auto,
    trsm_dense,
    trsm_lr,
)
from .batched import split_solution, stack_rhs
from .precision import (
    FP32_EPS_FLOOR,
    MixedPrecisionReport,
    demote_matrix,
    lowrank_dtype,
    mixed_precision_report,
    quantize_tile,
)
from .tiles import (
    DenseTile, LowRankTile, PendingTile, Tile, TileFormat, born_dense,
)

__all__ = [
    "AutoBackend",
    "ColumnBlocks",
    "CompressionBackend",
    "SVDBackend",
    "RandomizedSVDBackend",
    "get_backend",
    "default_backend",
    "TruncationRule",
    "RecompressionResult",
    "truncation_rank",
    "FlopCounter",
    "KernelClass",
    "kernel_flops",
    "dense_cholesky_flops",
    "DenseTile",
    "LowRankTile",
    "PendingTile",
    "Tile",
    "TileFormat",
    "born_dense",
    "potrf_dense",
    "trsm_dense",
    "trsm_lr",
    "trsm_auto",
    "syrk_dense",
    "syrk_lr",
    "syrk_auto",
    "gemm_dense",
    "gemm_dense_lrd",
    "gemm_dense_lrlr",
    "gemm_lr",
    "gemm_auto",
    "quantize_tile",
    "demote_matrix",
    "MixedPrecisionReport",
    "FP32_EPS_FLOOR",
    "lowrank_dtype",
    "mixed_precision_report",
    "stack_rhs",
    "split_solution",
]
