"""Unit tests for the cost-only recursive (nested) dense-kernel graphs
the simulator expands region-(1) tasks into (Section VII-D)."""

import pytest

from repro.linalg import KernelClass
from repro.linalg.flops import (
    flops_gemm_dense,
    flops_potrf_dense,
    flops_syrk_dense,
    flops_trsm_dense,
)
from repro.runtime.graph import _split_ranges, recursive_task_costs
from repro.utils import ConfigurationError


class TestSplitRanges:
    def test_even(self):
        rs = _split_ranges(12, 3)
        assert [(s.start, s.stop) for s in rs] == [(0, 4), (4, 8), (8, 12)]

    def test_uneven_covers_everything(self):
        rs = _split_ranges(10, 3)
        assert rs[0].start == 0 and rs[-1].stop == 10
        total = sum(s.stop - s.start for s in rs)
        assert total == 10

    def test_split_larger_than_b_rejected(self):
        with pytest.raises(ConfigurationError):
            _split_ranges(2, 3)


class TestRecursivePotrf:
    def test_flops_sum_matches_whole_kernel(self):
        for split in (2, 4):
            costs = recursive_task_costs(KernelClass.POTRF_DENSE, 240, split)
            assert sum(flops for _, flops, _ in costs) == pytest.approx(
                flops_potrf_dense(240), rel=0.05
            )


class TestCostGraphs:
    def test_lr_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            recursive_task_costs(KernelClass.GEMM_LR, 64, 2)

    @pytest.mark.parametrize(
        "kind,total",
        [
            (KernelClass.TRSM_DENSE, flops_trsm_dense(120)),
            (KernelClass.SYRK_DENSE, flops_syrk_dense(120)),
            (KernelClass.GEMM_DENSE, flops_gemm_dense(120)),
        ],
    )
    def test_flop_conservation(self, kind, total):
        costs = recursive_task_costs(kind, 120, 3)
        assert sum(flops for _, flops, _ in costs) == pytest.approx(total, rel=0.05)

    def test_deps_are_topological(self):
        """Dependencies always point to earlier tasks (valid emission order)."""
        for kind in (
            KernelClass.POTRF_DENSE,
            KernelClass.TRSM_DENSE,
            KernelClass.SYRK_DENSE,
            KernelClass.GEMM_DENSE,
        ):
            costs = recursive_task_costs(kind, 64, 4)
            for idx, (_, _, deps) in enumerate(costs):
                assert all(d < idx for d in deps)

    def test_expansion_counts(self):
        # split-2 POTRF: POTRF(0), TRSM(1,0), SYRK(1,0), POTRF(1).
        costs = recursive_task_costs(KernelClass.POTRF_DENSE, 64, 2)
        assert len(costs) == 4
        # split-2 GEMM: 2x2 output sub-tiles x 2 k-steps.
        costs3 = recursive_task_costs(KernelClass.GEMM_DENSE, 64, 2)
        assert len(costs3) == 8

    def test_more_splits_more_parallelism(self):
        """Critical path (in flops) shrinks with the split factor."""

        def cp(costs):
            dist = [0.0] * len(costs)
            for i, (_, flops, deps) in enumerate(costs):
                start = max((dist[d] for d in deps), default=0.0)
                dist[i] = start + flops
            return max(dist, default=0.0)

        c2 = recursive_task_costs(KernelClass.POTRF_DENSE, 240, 2)
        c4 = recursive_task_costs(KernelClass.POTRF_DENSE, 240, 4)
        assert cp(c4) < cp(c2) < flops_potrf_dense(240) * 1.01
