"""Integration tests combining simulator features (schedulers, tracing,
zero-cost kernels, recursive graphs) in one run — the configurations a
real study would actually use together."""

import pytest

from repro.analysis import occupancy_summary, paper_rank_model
from repro.obs import gantt
from repro.core import tune_band_size
from repro.distribution import BandDistribution, ProcessGrid
from repro.linalg import KernelClass
from repro.runtime import MachineSpec, build_cholesky_graph, simulate

B, NT, NODES = 1200, 32, 4


@pytest.fixture(scope="module")
def setup():
    model = paper_rank_model(B, accuracy=1e-8)
    band = tune_band_size(model.to_rank_grid(NT), B).band_size
    g = build_cholesky_graph(NT, band, B, model, recursive_split=2)
    dist = BandDistribution(ProcessGrid.squarest(NODES), band_size=band)
    return g, dist


@pytest.mark.parametrize("scheduler", ["priority", "fifo", "lifo"])
def test_feature_matrix_all_complete(setup, scheduler):
    """Every scheduler completes all tasks deterministically."""
    g, dist = setup
    machine = MachineSpec(nodes=NODES, cores_per_node=4)
    res = simulate(g, dist, machine, scheduler=scheduler)
    assert res.makespan > 0
    assert res.total_flops == pytest.approx(g.total_flops())
    res2 = simulate(g, dist, machine, scheduler=scheduler)
    assert res2.makespan == res.makespan


def test_full_featured_run_with_trace(setup):
    g, dist = setup
    machine = MachineSpec(nodes=NODES, cores_per_node=4)
    res = simulate(g, dist, machine, collect_trace=True)
    assert res.trace is not None and len(res.trace) == g.n_tasks
    # Work conservation: every kernel second is some core's busy second.
    total_kernel_time = sum(res.busy_by_kernel.values())
    assert total_kernel_time == pytest.approx(float(res.busy.sum()), rel=1e-9)
    # The Gantt renders without error on the recursive graph's trace.
    out = gantt(res, width=40)
    assert "P=potrf" in out
    s = occupancy_summary(res)
    assert 0 <= s.mean_occupancy <= 1


def test_zero_cost_kernels_never_lengthen(setup):
    g, dist = setup
    machine = MachineSpec(nodes=NODES, cores_per_node=4)
    res = simulate(
        g, dist, machine,
        zero_cost_kernels={KernelClass.GEMM_LR, KernelClass.GEMM_LR_DENSE},
    )
    full = simulate(g, dist, machine)
    assert res.makespan <= full.makespan * (1 + 1e-9)
