"""Integration tests: the full pipeline across module boundaries.

These exercise the same paths the benchmarks use — generate → compress →
auto-tune → (executor | simulator) → solve — and check cross-module
consistency rather than per-unit behaviour.
"""

import numpy as np
import pytest

from repro import TLRSolver, TruncationRule, st_3d_exp_problem
from repro.analysis import RankModel, occupancy_summary

pytestmark = pytest.mark.slow
from repro.core import autotune_matrix, solve_spd, tlr_cholesky
from repro.distribution import BandDistribution, ProcessGrid
from repro.matrix import BandTLRMatrix
from repro.runtime import (
    MachineSpec,
    build_cholesky_graph,
    execute_graph_parallel,
    simulate,
)


class TestFullPipeline:
    def test_autotuned_factorize_solve(self):
        """End-to-end with auto-tuning at a loose, rank-heterogeneous eps."""
        prob = st_3d_exp_problem(2000, 125, seed=11, nugget=1e-3)
        rule = TruncationRule(eps=1e-5)
        m, decision = autotune_matrix(prob, rule)
        tlr_cholesky(m)

        a = prob.dense()
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(2000)
        x = solve_spd(m, a @ x_true)
        err = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
        assert err < 1e-2  # loose accuracy, loose bound
        assert decision.band_size >= 1

    def test_solver_api_vs_manual_pipeline(self):
        """TLRSolver produces the same factor as the manual steps."""
        prob = st_3d_exp_problem(1000, 125, seed=4)
        solver = TLRSolver.from_problem(prob, accuracy=1e-8, band_size=2)
        solver.factorize()

        manual = BandTLRMatrix.from_problem(
            prob, TruncationRule(eps=1e-8), band_size=2, defer=True
        )
        tlr_cholesky(manual)
        np.testing.assert_allclose(
            solver.matrix.to_dense(lower_only=True),
            manual.to_dense(lower_only=True),
            atol=1e-10,
        )

    def test_executor_graph_matches_solver(self):
        """The runtime executor path solves systems as well as the loop."""
        prob = st_3d_exp_problem(1000, 125, seed=4)
        rule = TruncationRule(eps=1e-8)
        m = BandTLRMatrix.from_problem(prob, rule, band_size=2)
        grid = m.rank_grid()
        g = build_cholesky_graph(
            m.ntiles, 2, 125, lambda i, j: int(max(grid[i, j], 1))
        )
        execute_graph_parallel(g, m, n_workers=1)

        a = prob.dense()
        rng = np.random.default_rng(1)
        x_true = rng.standard_normal(1000)
        x = solve_spd(m, a @ x_true)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-6


class TestSimulatorExecutorConsistency:
    """Simulator and executor consume the same graph; their structural
    views must agree."""

    def test_flop_totals_agree(self):
        prob = st_3d_exp_problem(1000, 125, seed=4)
        rule = TruncationRule(eps=1e-8)
        m = BandTLRMatrix.from_problem(prob, rule, band_size=2)
        grid = m.rank_grid()
        g = build_cholesky_graph(
            m.ntiles, 2, 125, lambda i, j: int(max(grid[i, j], 1))
        )

        machine = MachineSpec(nodes=4, cores_per_node=4)
        dist = BandDistribution(ProcessGrid.squarest(4), band_size=2)
        res = simulate(g, dist, machine)
        assert res.total_flops == pytest.approx(g.total_flops())

        rep = execute_graph_parallel(g, m, n_workers=1)
        assert rep.tasks_executed == g.n_tasks

    def test_makespan_bounded_by_serial_and_critical_path(self):
        model = RankModel(tile_size=256, k1=64, alpha=0.9)
        g = build_cholesky_graph(10, 2, 256, model)
        machine = MachineSpec(nodes=2, cores_per_node=4)
        dist = BandDistribution(ProcessGrid.squarest(2), band_size=2)
        res = simulate(g, dist, machine)
        # Makespan can never beat the per-core serial time divided by the
        # core count, nor undercut zero communication critical path / the
        # fastest possible rate.
        serial = sum(
            machine.rates.seconds(t.kernel, t.flops, 256, 32)
            for t in g.tasks.values()
        )
        assert res.makespan <= serial + 1e-9
        assert res.makespan >= serial / machine.total_cores - 1e-9

    def test_occupancy_summary_consistent(self):
        model = RankModel(tile_size=256, k1=64, alpha=0.9)
        g = build_cholesky_graph(12, 2, 256, model)
        machine = MachineSpec(nodes=4, cores_per_node=2)
        dist = BandDistribution(ProcessGrid.squarest(4), band_size=2)
        res = simulate(g, dist, machine)
        s = occupancy_summary(res)
        np.testing.assert_allclose(
            s.busy_per_process + s.idle_per_process,
            machine.cores_per_node * res.makespan,
            rtol=1e-9,
        )


class TestNumericalRegimes:
    @pytest.mark.parametrize("eps,bound", [(1e-10, 1e-8), (1e-6, 1e-4), (1e-3, 0.2)])
    def test_error_scales_with_accuracy(self, eps, bound):
        prob = st_3d_exp_problem(729, 81, seed=6, nugget=1e-2)
        m = BandTLRMatrix.from_problem(prob, TruncationRule(eps=eps), band_size=1)
        tlr_cholesky(m)
        a = prob.dense()
        l = m.to_dense(lower_only=True)
        err = np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)
        assert err < bound

    def test_wider_band_never_less_accurate(self):
        prob = st_3d_exp_problem(729, 81, seed=6, nugget=1e-2)
        errs = []
        a = prob.dense()
        for band in (1, 3, 9):
            m = BandTLRMatrix.from_problem(
                prob, TruncationRule(eps=1e-4), band_size=band
            )
            tlr_cholesky(m)
            l = m.to_dense(lower_only=True)
            errs.append(np.linalg.norm(l @ l.T - a) / np.linalg.norm(a))
        assert errs[2] <= errs[0] * 1.01  # fully dense is (near-)exact
