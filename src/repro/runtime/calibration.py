"""Machine-model calibration against the host's real kernels.

The simulator's default rates are Shaheen-II-like constants; for studies
on *this* machine, :func:`calibrate_machine` measures the host's actual
dense-GEMM throughput and TLR-GEMM efficiency curve (the Fig. 2a
quantities) and builds a :class:`KernelRateModel` from them — closing the
loop between the measured single-core benchmarks and the simulated
distributed runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
    "MeasuredRates",
    "rates_from_run",
    "rates_from_runs",
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


#: Table-I classes that run the same kernel on the same destination format
#: and differ only in one operand's format.  A recording that exercised
#: one of a pair prices the other: the fused low-rank-destination GEMM is
#: labelled (5) or (6) by its first panel alone, and a band-1 recording
#: holds only (6) while every candidate band above 1 also holds (5).
_SIBLING_CLASS = {
    "(5)-GEMM": "(6)-GEMM",
    "(6)-GEMM": "(5)-GEMM",
    "(3)-GEMM": "(3)-SYRK",
    "(3)-SYRK": "(3)-GEMM",
}


@dataclass
class MeasuredRates:
    """Kernel durations replayed from a recorded run's task spans.

    Where :class:`~repro.runtime.machine.KernelRateModel` is an analytic
    throughput curve, this rates object answers ``seconds(...)`` with the
    *median measured duration* of that kernel class in a real trace — the
    DES then replays the measured per-task costs over the modelled
    network, which is exactly the "predicted vs realized" reconciliation
    a trace diff wants: per-kernel medians agree by construction, and any
    residual disagreement isolates scheduling/communication modelling
    error rather than kernel-rate error.
    """

    durations: dict[str, float] = field(default_factory=dict)
    fallback_gflops: float = 10.0
    class_gflops: dict[str, float] = field(default_factory=dict)
    extrapolate: bool = False

    def seconds(self, kernel, flops: float, b: int, k: int) -> float:
        """Measured duration of ``kernel``, else of its sibling class
        (:data:`_SIBLING_CLASS`), else the aggregate flops rate."""
        name = getattr(kernel, "value", str(kernel))
        for cls in (name, _SIBLING_CLASS.get(name)):
            if self.extrapolate:
                g = self.class_gflops.get(cls)
                if g and g > 0.0 and flops > 0.0:
                    return flops / (g * 1e9)
            d = self.durations.get(cls)
            if d is not None:
                return d
        if flops <= 0.0:
            return 0.0
        return flops / (self.fallback_gflops * 1e9)


def rates_from_run(
    run, *, extrapolate: bool = False, stat: str = "median"
) -> MeasuredRates:
    """Build :class:`MeasuredRates` from a loaded run trace.

    ``run`` is an :class:`~repro.obs.analytics.RunTrace` (from
    :func:`repro.obs.load_run` or :func:`repro.obs.run_from_observation`)
    whose task spans carry ``kernel`` annotations — any graph-executor
    run recorded under :func:`repro.obs.observe` qualifies.
    """
    return rates_from_runs([run], extrapolate=extrapolate, stat=stat)


def rates_from_runs(
    runs, *, extrapolate: bool = False, stat: str = "median"
) -> MeasuredRates:
    """Pool several recorded runs into one :class:`MeasuredRates`.

    Per-kernel-class durations from all runs are merged before taking
    the summary statistic, and per-class GFLOP/s (``class_gflops``) is
    computed from the pooled flops/seconds totals.  With
    ``extrapolate=False`` (the default) ``seconds`` replays the pooled
    per-class duration — the right mode when the sweep targets the
    *recorded* geometry.  With ``extrapolate=True`` the per-class
    throughput scales durations with each task's modelled flops — the
    right mode when tuning for a *different* N or tile size than was
    recorded.

    ``stat`` selects the replayed statistic: ``"median"`` (default)
    makes predicted and realized per-kernel *medians* agree by
    construction — what a trace diff compares; ``"mean"`` makes the
    simulated *aggregate busy time* match the recorded one — what a
    makespan prediction needs, because measured task durations are
    right-skewed (preemption and cache pollution only ever slow a task
    down), so Σ medians undershoots Σ durations by the skew factor.
    The autotuner calibrates with ``"mean"`` for exactly that reason
    (see docs/tuning.md).
    """
    from ..obs.analytics import flop_attribution

    if not runs:
        raise ValueError("rates_from_runs needs at least one run")
    if stat not in ("median", "mean"):
        raise ValueError(f"stat must be 'median' or 'mean', got {stat!r}")
    pooled_durations: dict[str, list[float]] = {}
    pooled_flops: dict[str, float] = {}
    pooled_secs: dict[str, float] = {}
    for run in runs:
        for kernel, r in flop_attribution(run).items():
            pooled_durations.setdefault(kernel, []).extend(r.durations)
            pooled_flops[kernel] = pooled_flops.get(kernel, 0.0) + r.flops
            pooled_secs[kernel] = pooled_secs.get(kernel, 0.0) + r.seconds
    summarize = np.median if stat == "median" else np.mean
    durations = {
        kernel: float(summarize(ds))
        for kernel, ds in pooled_durations.items()
        if ds
    }
    class_gflops = {
        kernel: pooled_flops[kernel] / pooled_secs[kernel] / 1e9
        for kernel in pooled_flops
        if pooled_secs.get(kernel, 0.0) > 0.0 and pooled_flops[kernel] > 0.0
    }
    total_flops = sum(pooled_flops.values())
    total_secs = sum(pooled_secs.values())
    fallback = total_flops / total_secs / 1e9 if total_secs > 0 else 10.0
    return MeasuredRates(
        durations=durations,
        fallback_gflops=fallback,
        class_gflops=class_gflops,
        extrapolate=extrapolate,
    )
