"""Unit tests for the discrete-event distributed-machine simulator."""

import numpy as np
import pytest

from repro.distribution import BandDistribution, ProcessGrid, TwoDBlockCyclic
from repro.linalg import KernelClass
from repro.runtime import MachineSpec, build_cholesky_graph, simulate
from repro.utils import ConfigurationError, SchedulingError

RANK = lambda i, j: max(4, 64 // (abs(i - j) + 1))


@pytest.fixture(scope="module")
def graph():
    return build_cholesky_graph(12, 3, 512, RANK)


@pytest.fixture(scope="module")
def machine():
    return MachineSpec(nodes=4, cores_per_node=4)


@pytest.fixture(scope="module")
def dist():
    return TwoDBlockCyclic(ProcessGrid.squarest(4))


class TestBasicInvariants:
    def test_makespan_positive(self, graph, machine, dist):
        res = simulate(graph, dist, machine)
        assert res.makespan > 0

    def test_all_work_accounted(self, graph, machine, dist):
        res = simulate(graph, dist, machine)
        assert res.total_flops == pytest.approx(graph.total_flops())

    def test_busy_bounded_by_capacity(self, graph, machine, dist):
        res = simulate(graph, dist, machine)
        capacity = machine.cores_per_node * res.makespan
        assert np.all(res.busy <= capacity + 1e-9)

    def test_occupancy_in_unit_interval(self, graph, machine, dist):
        res = simulate(graph, dist, machine)
        assert np.all(res.occupancy >= 0) and np.all(res.occupancy <= 1 + 1e-12)

    def test_deterministic(self, graph, machine, dist):
        a = simulate(graph, dist, machine)
        b = simulate(graph, dist, machine)
        assert a.makespan == b.makespan
        np.testing.assert_array_equal(a.busy, b.busy)

    def test_mismatched_processes_rejected(self, graph, machine):
        with pytest.raises(SchedulingError):
            simulate(graph, TwoDBlockCyclic(ProcessGrid(2, 4)), machine)


class TestPanelTimes:
    def test_monotone_panel_release(self, graph, machine, dist):
        res = simulate(graph, dist, machine)
        pd = res.panel_done
        assert all(pd[i] <= pd[i + 1] + 1e-12 for i in range(len(pd) - 1))

    def test_potrf_before_panel_done(self, graph, machine, dist):
        res = simulate(graph, dist, machine)
        for k in range(graph.ntiles - 1):
            assert res.potrf_done[k] <= res.panel_done[k] + 1e-12

    def test_last_panel_at_makespan_or_before(self, graph, machine, dist):
        res = simulate(graph, dist, machine)
        assert res.panel_done[-1] <= res.makespan + 1e-12


class TestScalingBehaviour:
    def test_more_cores_not_slower(self, graph, dist):
        t1 = simulate(graph, dist, MachineSpec(nodes=4, cores_per_node=1)).makespan
        t8 = simulate(graph, dist, MachineSpec(nodes=4, cores_per_node=8)).makespan
        assert t8 <= t1 * 1.001

    def test_single_core_serializes(self, graph):
        """With one process and one core, makespan == total kernel time."""
        m = MachineSpec(nodes=1, cores_per_node=1)
        d = TwoDBlockCyclic(ProcessGrid(1, 1))
        res = simulate(graph, d, m)
        assert res.busy[0] == pytest.approx(res.makespan, rel=1e-9)

    def test_faster_network_not_slower(self, graph, dist):
        slow = MachineSpec(nodes=4, cores_per_node=4, bandwidth_Bps=1e8)
        fast = MachineSpec(nodes=4, cores_per_node=4, bandwidth_Bps=1e11)
        assert (
            simulate(graph, dist, fast).makespan
            <= simulate(graph, dist, slow).makespan * 1.001
        )


class TestCommunication:
    def test_local_edges_only_on_single_process(self, graph):
        m = MachineSpec(nodes=1, cores_per_node=4)
        res = simulate(graph, TwoDBlockCyclic(ProcessGrid(1, 1)), m)
        assert res.comm.remote_edges == 0
        assert res.comm.messages == 0

    def test_remote_edges_with_multiple_processes(self, graph, machine, dist):
        res = simulate(graph, dist, machine)
        assert res.comm.remote_edges > 0
        assert res.comm.messages > 0
        assert res.comm.bytes_sent > 0

    def test_broadcast_dedup(self, graph, machine, dist):
        """Messages are per (producer, destination process), never per edge."""
        res = simulate(graph, dist, machine)
        assert res.comm.messages <= res.comm.remote_edges

    def test_flat_broadcast_not_faster_than_tree(self, graph, dist):
        tree = MachineSpec(nodes=4, cores_per_node=4, broadcast="tree")
        flat = MachineSpec(nodes=4, cores_per_node=4, broadcast="flat")
        rt = simulate(graph, dist, tree)
        rf = simulate(graph, dist, flat)
        # Same message counts; timing may differ.
        assert rt.comm.messages == rf.comm.messages


class TestZeroCostKernels:
    def test_no_tlr_gemm_never_slower(self, graph, machine, dist):
        """Fig. 10's No_TLR_GEMM run: low-rank updates become free."""
        full = simulate(graph, dist, machine)
        crit = simulate(
            graph,
            dist,
            machine,
            zero_cost_kernels={KernelClass.GEMM_LR, KernelClass.GEMM_LR_DENSE},
        )
        assert crit.makespan <= full.makespan * (1 + 1e-9)

    def test_no_tlr_gemm_faster_when_ranks_high(self, machine, dist):
        """With high ranks the LR updates dominate and removing them wins."""
        g = build_cholesky_graph(12, 1, 512, lambda i, j: 200)
        full = simulate(g, dist, machine)
        crit = simulate(
            g,
            dist,
            machine,
            zero_cost_kernels={KernelClass.GEMM_LR, KernelClass.GEMM_LR_DENSE},
        )
        assert crit.makespan < 0.5 * full.makespan

    def test_zero_everything_leaves_only_comm(self, graph, machine, dist):
        res = simulate(graph, dist, machine, zero_cost_kernels=set(KernelClass))
        full = simulate(graph, dist, machine)
        assert 0.0 < res.makespan < full.makespan
        assert np.all(res.busy == 0.0)


class TestTrace:
    def test_trace_collection(self, graph, machine, dist):
        res = simulate(graph, dist, machine, collect_trace=True)
        assert res.trace is not None
        assert len(res.trace) == graph.n_tasks
        for tid, proc, start, end in res.trace[:50]:
            assert end >= start >= 0.0
            assert 0 <= proc < machine.nodes

    def test_no_trace_by_default(self, graph, machine, dist):
        assert simulate(graph, dist, machine).trace is None


class TestTaskOverhead:
    def test_one_core_pays_it_once_per_task(self, graph):
        one = TwoDBlockCyclic(ProcessGrid.squarest(1))
        h = 1e-3
        free, paid = (
            simulate(
                graph, one,
                MachineSpec(nodes=1, cores_per_node=1, task_overhead_s=x),
                collect_trace=True,
            )
            for x in (0.0, h)
        )
        assert paid.makespan == pytest.approx(
            free.makespan + h * graph.n_tasks
        )
        # busy time and traced spans cover the kernels alone, as a
        # recorded run's task spans do
        assert paid.busy.sum() == pytest.approx(free.busy.sum())
        spans = [
            {tid: end - start for tid, _, start, end in res.trace}
            for res in (free, paid)
        ]
        assert spans[1] == pytest.approx(spans[0])

    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineSpec(task_overhead_s=-1e-6)


class TestRecursiveGraphSimulation:
    def test_expansion_speeds_up_band_dominated_run(self):
        rank = lambda i, j: 6
        g = build_cholesky_graph(10, 3, 1024, rank)
        ge = build_cholesky_graph(10, 3, 1024, rank, recursive_split=4)
        m = MachineSpec(nodes=1, cores_per_node=16)
        d = TwoDBlockCyclic(ProcessGrid(1, 1))
        t_plain = simulate(g, d, m).makespan
        t_rec = simulate(ge, d, m).makespan
        assert t_rec < t_plain

    def test_band_distribution_works_with_expansion(self):
        g = build_cholesky_graph(10, 3, 512, RANK, recursive_split=2)
        m = MachineSpec(nodes=4, cores_per_node=4)
        res = simulate(g, BandDistribution(ProcessGrid.squarest(4), band_size=3), m)
        assert res.makespan > 0


class TestKernelBreakdown:
    def test_breakdown_sums_to_busy(self, graph, machine, dist):
        res = simulate(graph, dist, machine)
        total = sum(res.busy_by_kernel.values())
        assert total == pytest.approx(float(res.busy.sum()))

    def test_zero_cost_kernels_absent(self, graph, machine, dist):
        res = simulate(
            graph, dist, machine,
            zero_cost_kernels={KernelClass.GEMM_LR, KernelClass.GEMM_LR_DENSE},
        )
        assert KernelClass.GEMM_LR not in res.busy_by_kernel
        assert KernelClass.GEMM_LR_DENSE not in res.busy_by_kernel

    def test_band_graph_covers_all_ten_classes(self):
        g = build_cholesky_graph(12, 3, 512, RANK)
        m = MachineSpec(nodes=1, cores_per_node=2)
        d = TwoDBlockCyclic(ProcessGrid(1, 1))
        res = simulate(g, d, m)
        assert len(res.busy_by_kernel) == 10
