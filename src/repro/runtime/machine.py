"""Machine and kernel-rate models for the distributed-memory simulator.

The paper's testbed (Shaheen II, a Cray XC40: 6,174 nodes, 2x16-core Intel
Haswell @ 2.3 GHz, 128 GB/node, Aries interconnect) is unavailable, so the
simulator runs the *same task DAG* against a parametric machine model.
Defaults are calibrated to the paper's own measurements:

* Section VIII-F reports 14.32 Tflop/s Linpack on 16 nodes, i.e. ≈ 28
  Gflop/s sustained per core — our ``dense_gflops`` default;
* Fig. 2(a) shows TLR GEMM reaching ≈ 1/3 of dense GEMM throughput at
  medium ranks and tapering at both rank extremes (memory-bound at small
  k, recompression-dominated at large k) — the shape of
  :meth:`KernelRateModel.efficiency`;
* Cray Aries gives ≈ 8 GB/s injection bandwidth and ≈ 1.5 µs latency.

Absolute seconds from the simulator are *not* expected to match the paper;
the relative shapes (speedups, crossovers, scaling) are.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..linalg.flops import KernelClass
from ..utils.exceptions import ConfigurationError
from ..utils.validation import (
    check_finite,
    check_in,
    check_positive_float,
    check_positive_int,
)

__all__ = ["KernelRateModel", "MeasuredRates", "MachineSpec", "SHAHEEN_II_LIKE"]


@dataclass(frozen=True)
class KernelRateModel:
    """Per-core sustained throughput per kernel class.

    Attributes
    ----------
    dense_gflops:
        Sustained double-precision rate of large dense Level-3 BLAS.
    potrf_fraction:
        POTRF efficiency relative to GEMM (LAPACK factorizations run a
        little below GEMM peak).
    lr_peak_fraction:
        Peak TLR-GEMM efficiency relative to dense GEMM (Fig. 2a: ~1/3).
    ramp_rank:
        Rank scale of the memory-bound ramp-up at small ``k``.
    decay_rank_fraction:
        Rank (as a fraction of the tile size) where recompression costs
        start to dominate and throughput decays.
    decay_power:
        Sharpness of the high-rank decay.
    mixed_fraction:
        Efficiency of the mixed dense-output kernels ((2)/(3)-GEMM,
        (3)-SYRK, (4)-TRSM) relative to dense GEMM — tall-skinny GEMMs run
        below square-GEMM peak.
    """

    dense_gflops: float = 28.0
    potrf_fraction: float = 0.75
    lr_peak_fraction: float = 0.34
    ramp_rank: int = 24
    decay_rank_fraction: float = 0.40
    decay_power: float = 3.0
    mixed_fraction: float = 0.55

    def __post_init__(self) -> None:
        check_positive_float("dense_gflops", self.dense_gflops)
        check_positive_float("lr_peak_fraction", self.lr_peak_fraction)
        check_positive_int("ramp_rank", self.ramp_rank)

    def efficiency(self, kernel: KernelClass, b: int, k: int) -> float:
        """Throughput of ``kernel`` relative to ``dense_gflops``.

        For the low-rank-output GEMMs the curve is
        ``lr_peak * k/(k + ramp) / (1 + (k / (decay_frac * b))**power)`` —
        rising from the memory-bound regime, peaking mid-rank, decaying
        once recompression dominates, the empirical shape of Fig. 2(a).
        """
        if kernel is KernelClass.POTRF_DENSE:
            return self.potrf_fraction
        if kernel in (
            KernelClass.TRSM_DENSE,
            KernelClass.SYRK_DENSE,
            KernelClass.GEMM_DENSE,
        ):
            return 1.0
        if kernel in (
            KernelClass.TRSM_LR,
            KernelClass.SYRK_LR,
            KernelClass.GEMM_DENSE_LRD,
            KernelClass.GEMM_DENSE_LRLR,
        ):
            return self.mixed_fraction
        # Low-rank-output GEMMs: (5)-GEMM and (6)-GEMM.
        k = max(k, 1)
        ramp = k / (k + self.ramp_rank)
        decay = 1.0 / (1.0 + (k / (self.decay_rank_fraction * b)) ** self.decay_power)
        return self.lr_peak_fraction * ramp * decay

    def seconds(self, kernel: KernelClass, flops: float, b: int, k: int) -> float:
        """Wall-clock seconds for ``flops`` of ``kernel`` on one core."""
        if flops <= 0.0:
            return 0.0
        rate = self.dense_gflops * 1e9 * self.efficiency(kernel, b, k)
        return flops / rate


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
    """Kernel costs replayed from recorded task spans.

    Where :class:`KernelRateModel` is an analytic throughput curve, this
    rates object prices a task by one rule: the mean recorded duration of
    its Table-I class, else of its sibling class (:data:`_SIBLING_CLASS`),
    else its flops at ``fallback_gflops`` (the recordings' aggregate
    rate).  Means, not medians: ``n`` tasks of a class at its mean sum to
    the class's recorded busy time, where medians undershoot it
    (durations are right-skewed).  A duration, not ``flops / rate``: at
    b = 64-100 a task is mostly call latency, and scaling by flops
    under-prices the small tasks a wider band or another tile count runs
    (measured in docs/tuning.md).  :meth:`repro.tune.Calibration
    .from_runs` fits it; with no durations every task costs its flops at
    one rate — Algorithm 1's flop model.
    """

    durations: dict[str, float] = field(default_factory=dict)
    fallback_gflops: float = 10.0

    def seconds(self, kernel, flops: float, b: int, k: int) -> float:
        """Recorded mean duration of ``kernel`` or its sibling class, else
        ``flops`` at the aggregate rate."""
        name = getattr(kernel, "value", str(kernel))
        for cls in (name, _SIBLING_CLASS.get(name)):
            d = self.durations.get(cls)
            if d is not None:
                return d
        if flops <= 0.0:
            return 0.0
        return flops / (self.fallback_gflops * 1e9)


@dataclass(frozen=True)
class MachineSpec:
    """A distributed-memory machine for the simulator.

    Attributes
    ----------
    nodes:
        Number of processes (the paper runs one process per node).
    cores_per_node:
        Worker cores per process (Shaheen II nodes have 32; one core is
        typically reserved for the runtime's communication thread).
    rates:
        Kernel throughput model.
    latency_s:
        Network point-to-point latency.
    bandwidth_Bps:
        Per-NIC injection bandwidth (bytes/second).
    broadcast:
        ``"tree"`` — logarithmic collective propagation (PaRSEC's PTG
        collectives); ``"flat"`` — the sender serializes one message per
        destination (the StarPU-style baseline of Section III-C).
    memory_per_node_GB:
        Capacity used for feasibility checks (128 GB on Shaheen II).
    task_overhead_s:
        Core time the runtime spends per task outside the kernel
        (scheduling, dependency release; for the Python thread core also
        the interpreter lock).  A task occupies its core for this long
        before its kernel starts.  Zero by default — the paper's model;
        :class:`repro.tune.Calibration` measures it from a recorded run.
    """

    nodes: int = 16
    cores_per_node: int = 31
    rates: KernelRateModel = field(default_factory=KernelRateModel)
    latency_s: float = 1.5e-6
    bandwidth_Bps: float = 8.0e9
    broadcast: str = "tree"
    memory_per_node_GB: float = 128.0
    task_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        check_positive_int("nodes", self.nodes)
        check_positive_int("cores_per_node", self.cores_per_node)
        check_finite("task_overhead_s", self.task_overhead_s)
        if self.task_overhead_s < 0.0:
            raise ConfigurationError("task_overhead_s must be >= 0")
        check_positive_float("memory_per_node_GB", self.memory_per_node_GB)
        check_positive_float("latency_s", self.latency_s)
        check_positive_float("bandwidth_Bps", self.bandwidth_Bps)
        check_in("broadcast", self.broadcast, ("tree", "flat"))

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    def with_nodes(self, nodes: int) -> "MachineSpec":
        """Same machine with a different node count (scaling sweeps)."""
        return replace(self, nodes=nodes)

    def transfer_seconds(self, nbytes: int) -> float:
        """Point-to-point message time: latency + size/bandwidth."""
        if nbytes < 0:
            raise ConfigurationError("message size must be >= 0")
        return self.latency_s + nbytes / self.bandwidth_Bps


#: The paper's testbed, parametrically.
SHAHEEN_II_LIKE = MachineSpec()
