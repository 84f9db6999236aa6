"""Machine-model calibration against the host's real kernels.

The simulator's default rates are Shaheen-II-like constants; for studies
on *this* machine, :func:`calibrate_machine` measures the host's actual
dense-GEMM throughput and TLR-GEMM efficiency curve (the Fig. 2a
quantities) and builds a :class:`KernelRateModel` from them — closing the
loop between the measured single-core benchmarks and the simulated
distributed runs.  Rates measured from a *recorded run* are
:meth:`repro.tune.Calibration.from_runs`'s job.
"""

from __future__ import annotations

import time

import numpy as np

from ..linalg.compression import TruncationRule
from ..linalg.hcore import gemm_dense, gemm_lr
from ..linalg.tiles import DenseTile, LowRankTile
from ..utils.validation import check_positive_int
from .machine import KernelRateModel, MachineSpec

__all__ = [
    "measure_dense_gflops",
    "measure_lr_efficiency",
    "calibrate_machine",
]


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_dense_gflops(b: int = 512, *, repeats: int = 3) -> float:
    """Sustained dense-GEMM throughput (Gflop/s) at tile size ``b``."""
    check_positive_int("b", b)
    rng = np.random.default_rng(0)
    a = DenseTile(rng.standard_normal((b, b)))
    c = DenseTile(rng.standard_normal((b, b)))
    bt = DenseTile(rng.standard_normal((b, b)))
    secs = _best_of(lambda: gemm_dense(a, bt, c), repeats)
    return 2.0 * b**3 / secs / 1e9


def measure_lr_efficiency(
    b: int = 512, k: int | None = None, *, repeats: int = 3
) -> float:
    """TLR-GEMM throughput at rank ``k`` relative to dense GEMM.

    Defaults to the mid-rank regime ``k = b/8`` where Fig. 2a reports the
    ≈ 1/3 plateau.
    """
    check_positive_int("b", b)
    k = k or max(b // 8, 4)
    rng = np.random.default_rng(1)
    rule = TruncationRule(eps=1e-8)
    tiles = [
        LowRankTile(rng.standard_normal((b, k)), rng.standard_normal((b, k)))
        for _ in range(3)
    ]
    secs = _best_of(lambda: gemm_lr(tiles[0], tiles[1], tiles[2], rule), repeats)
    lr_gflops = (36 * b * k**2 + 157 * k**3) / secs / 1e9
    return lr_gflops / measure_dense_gflops(b, repeats=repeats)


def calibrate_machine(
    nodes: int = 1,
    cores_per_node: int = 1,
    *,
    b: int = 512,
    repeats: int = 3,
    **machine_kwargs,
) -> MachineSpec:
    """A :class:`MachineSpec` whose rates reflect this host's kernels.

    Network parameters keep their defaults (there is no network to
    measure on one host) unless overridden via ``machine_kwargs``.
    """
    dense = measure_dense_gflops(b, repeats=repeats)
    lr_frac = measure_lr_efficiency(b, repeats=repeats)
    rates = KernelRateModel(
        dense_gflops=dense,
        lr_peak_fraction=min(max(lr_frac, 0.05), 1.0),
    )
    return MachineSpec(
        nodes=nodes, cores_per_node=cores_per_node, rates=rates, **machine_kwargs
    )

