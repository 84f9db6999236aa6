"""Unit tests for the machine and kernel-rate models."""

import pytest

from repro.linalg import KernelClass
from repro.runtime import SHAHEEN_II_LIKE, KernelRateModel, MachineSpec
from repro.utils import ConfigurationError


class TestKernelRateModel:
    def test_dense_kernels_at_full_rate(self):
        m = KernelRateModel()
        for k in (KernelClass.GEMM_DENSE, KernelClass.TRSM_DENSE, KernelClass.SYRK_DENSE):
            assert m.efficiency(k, 2400, 0) == 1.0

    def test_potrf_below_gemm(self):
        m = KernelRateModel()
        assert 0 < m.efficiency(KernelClass.POTRF_DENSE, 2400, 0) < 1.0

    def test_lr_gemm_peak_near_one_third(self):
        """Fig. 2a: TLR GEMM reaches about 1/3 of dense throughput."""
        m = KernelRateModel()
        b = 2400
        effs = [m.efficiency(KernelClass.GEMM_LR, b, k) for k in range(8, b // 2, 8)]
        assert 0.25 < max(effs) < 0.40

    def test_lr_gemm_tapers_at_both_ends(self):
        """Fig. 2a: performance tapers off at both ends of rank."""
        m = KernelRateModel()
        b = 2400
        lo = m.efficiency(KernelClass.GEMM_LR, b, 4)
        hi = m.efficiency(KernelClass.GEMM_LR, b, b)
        mid = m.efficiency(KernelClass.GEMM_LR, b, 200)
        assert lo < mid and hi < mid

    def test_seconds_scale_with_flops(self):
        m = KernelRateModel()
        t1 = m.seconds(KernelClass.GEMM_DENSE, 1e9, 2400, 0)
        t2 = m.seconds(KernelClass.GEMM_DENSE, 2e9, 2400, 0)
        assert t2 == pytest.approx(2 * t1)

    def test_zero_flops_zero_time(self):
        assert KernelRateModel().seconds(KernelClass.GEMM_DENSE, 0.0, 64, 0) == 0.0


class TestMachineSpec:
    def test_defaults_shaheen_like(self):
        assert SHAHEEN_II_LIKE.nodes == 16
        assert SHAHEEN_II_LIKE.memory_per_node_GB == 128.0

    def test_total_cores(self):
        assert MachineSpec(nodes=4, cores_per_node=8).total_cores == 32

    def test_with_nodes_preserves_rest(self):
        m = MachineSpec(nodes=4, latency_s=5e-6, task_overhead_s=4e-5)
        m2 = m.with_nodes(64)
        assert m2.nodes == 64
        assert m2 == MachineSpec(nodes=64, latency_s=5e-6, task_overhead_s=4e-5)

    def test_transfer_seconds(self):
        m = MachineSpec(latency_s=1e-6, bandwidth_Bps=1e9)
        assert m.transfer_seconds(1_000_000) == pytest.approx(1e-6 + 1e-3)

    def test_transfer_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MachineSpec().transfer_seconds(-1)

    def test_rejects_bad_broadcast(self):
        with pytest.raises(ConfigurationError):
            MachineSpec(broadcast="ring")

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            MachineSpec(nodes=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("task_overhead_s", float("nan")),
            ("task_overhead_s", float("inf")),
            ("memory_per_node_GB", float("nan")),
            ("memory_per_node_GB", -1.0),
        ],
    )
    def test_rejects_non_finite_or_negative_costs(self, field, value):
        """NaN passes a bare ``< 0`` check and would make the makespan NaN."""
        with pytest.raises(ConfigurationError, match=field):
            MachineSpec(**{field: value})

    def test_linpack_consistency(self):
        """Default rates reproduce the paper's ~14.3 Tflop/s on 16 nodes
        within a factor accounting for per-node core count (31 workers)."""
        m = SHAHEEN_II_LIKE
        aggregate = m.total_cores * m.rates.dense_gflops / 1000.0  # Tflop/s
        assert 10.0 < aggregate < 20.0
