"""Unit tests: the execution core on several worker threads conserves
tasks, propagates failures, and feeds the trace/occupancy analysis
pipeline.  (Bitwise identity across worker counts and scheduler
policies is ``tests/test_executor.py``'s differential test.)"""

import json
import threading

import numpy as np
import pytest

from repro.analysis import occupancy_summary
from repro.obs import gantt, write_chrome_trace
from repro.core import TLRSolver, tlr_cholesky
from repro.linalg.flops import KernelClass
from repro.matrix import BandTLRMatrix
from repro.runtime import (
    ThreadSafeFlopCounter,
    ThreadSafeMemoryPool,
    graph_for_matrix,
    execute_graph,
    execute_graph_parallel,
)
from repro.utils import ConfigurationError, RuntimeSystemError, SchedulingError


def _graph_for(matrix, band):
    assert band == matrix.band_size
    return graph_for_matrix(matrix)


class TestDeterminism:
    @pytest.mark.parametrize("band", [1, 2, 4])
    def test_bitwise_identical_across_worker_counts(
        self, small_problem, rule8, band
    ):
        base = BandTLRMatrix.from_problem(small_problem, rule8, band_size=band)
        g = _graph_for(base, band)
        factors = {}
        for w in (1, 2, 4):
            m = base.copy()
            execute_graph_parallel(g, m, n_workers=w)
            factors[w] = m.to_dense(lower_only=True)
        assert np.array_equal(factors[1], factors[2])
        assert np.array_equal(factors[1], factors[4])

    def test_matches_reference_loops(self, small_problem, small_dense, rule8):
        m = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
        g = _graph_for(m, 2)
        execute_graph_parallel(g, m, n_workers=3)
        l = m.to_dense(lower_only=True)
        err = np.linalg.norm(l @ l.T - small_dense) / np.linalg.norm(small_dense)
        assert err < 1e-6

    @pytest.mark.parametrize("scheduler", ["priority", "fifo", "lifo"])
    def test_scheduler_policies_same_factor(self, small_problem, rule8, scheduler):
        base = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
        g = _graph_for(base, 2)
        ref, m = base.copy(), base.copy()
        execute_graph_parallel(g, ref, n_workers=1)
        execute_graph_parallel(g, m, n_workers=4, scheduler=scheduler)
        assert np.array_equal(
            ref.to_dense(lower_only=True), m.to_dense(lower_only=True)
        )


class TestConservation:
    def test_every_task_executed_exactly_once(self, small_tlr):
        g = _graph_for(small_tlr, 1)
        rep = execute_graph_parallel(g, small_tlr, n_workers=4, collect_trace=True)
        assert rep.tasks_executed == g.n_tasks
        executed = [rec[0] for rec in rep.trace]
        assert len(executed) == g.n_tasks
        assert set(executed) == set(g.tasks)

    def test_trace_respects_dependency_order(self, small_tlr):
        g = _graph_for(small_tlr, 1)
        rep = execute_graph_parallel(
            g, small_tlr, n_workers=4, collect_trace=True
        )
        start = {rec[0]: rec[2] for rec in rep.trace}
        end = {rec[0]: rec[3] for rec in rep.trace}
        for tid, task in g.tasks.items():
            for e in task.deps:
                assert end[e.src] <= start[tid] + 1e-9

    def test_flops_match_sequential(self, small_tlr):
        g = _graph_for(small_tlr, 1)
        seq = small_tlr.copy()
        rep_s = execute_graph(g, seq)
        rep_p = execute_graph_parallel(g, small_tlr, n_workers=4)
        assert rep_p.counter.total == pytest.approx(rep_s.counter.total)
        assert rep_p.rank_growth_events == rep_s.rank_growth_events
        assert rep_p.max_rank_seen == rep_s.max_rank_seen

    def test_busy_and_makespan_populated(self, small_tlr):
        g = _graph_for(small_tlr, 1)
        rep = execute_graph_parallel(g, small_tlr, n_workers=2)
        assert rep.makespan > 0
        assert rep.busy.shape == (2,)
        assert rep.busy.sum() > 0
        assert np.all(rep.occupancy <= 1.0 + 1e-9)


class TestGuards:
    def test_bad_scheduler_rejected(self, small_tlr):
        g = _graph_for(small_tlr, 1)
        with pytest.raises(SchedulingError):
            execute_graph_parallel(g, small_tlr, scheduler="random")

    def test_bad_worker_count_rejected(self, small_tlr):
        g = _graph_for(small_tlr, 1)
        with pytest.raises(ConfigurationError):
            execute_graph_parallel(g, small_tlr, n_workers=0)

    def test_kernel_failure_propagates(self, small_problem, rule8):
        m = BandTLRMatrix.from_problem(small_problem, rule8, band_size=1)
        # Destroy positive definiteness so POTRF fails inside a worker.
        diag = m.tile(0, 0)
        diag.data[:] = -np.eye(diag.shape[0])
        g = _graph_for(m, 1)
        with pytest.raises(RuntimeSystemError, match="worker failed"):
            execute_graph_parallel(g, m, n_workers=2)


class TestAnalysisPipeline:
    def test_gantt_renders_real_trace(self, small_tlr):
        g = _graph_for(small_tlr, 1)
        rep = execute_graph_parallel(
            g, small_tlr, n_workers=2, collect_trace=True
        )
        text = gantt(rep, width=40)
        assert "P=potrf" in text
        assert "p0" in text

    def test_chrome_trace_export(self, small_tlr, tmp_path):
        g = _graph_for(small_tlr, 1)
        rep = execute_graph_parallel(
            g, small_tlr, n_workers=2, collect_trace=True
        )
        path = write_chrome_trace(rep, tmp_path / "real")
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == g.n_tasks
        assert doc["otherData"]["nodes"] == 2
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids <= {0, 1}

    def test_occupancy_summary(self, small_tlr):
        g = _graph_for(small_tlr, 1)
        rep = execute_graph_parallel(g, small_tlr, n_workers=2)
        s = occupancy_summary(rep)
        assert 0.0 < s.mean_occupancy <= 1.0
        assert s.busy_per_process.shape == (2,)


class TestFactorizeIntegration:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_tlr_cholesky_n_workers(self, small_problem, rule8, workers):
        ref = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
        par = ref.copy()
        rep_s = tlr_cholesky(ref)
        rep_p = tlr_cholesky(par, n_workers=workers)
        assert np.allclose(
            ref.to_dense(lower_only=True),
            par.to_dense(lower_only=True),
            atol=1e-9,
        )
        assert rep_p.counter.total > 0
        assert rep_p.max_rank_seen == rep_s.max_rank_seen

    def test_solver_facade(self, small_problem, small_dense):
        solver = TLRSolver.from_problem(small_problem, accuracy=1e-8)
        solver.factorize(n_workers=2)
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(small_problem.n)
        x = solver.solve(small_dense @ x_true)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-6


class TestThreadSafeWrappers:
    def test_counter_concurrent_adds(self):
        counter = ThreadSafeFlopCounter()
        n, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                counter.add(KernelClass.GEMM_DENSE, 1.0)

        threads = [threading.Thread(target=work) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.total == n * per_thread
        assert counter.per_class_count[KernelClass.GEMM_DENSE] == n * per_thread

    def test_pool_concurrent_churn(self):
        pool = ThreadSafeMemoryPool()
        errors = []

        def work(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    buf = pool.allocate((int(rng.integers(1, 8)), 16))
                    pool.release(buf)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert pool.stats.outstanding_bytes == 0
        assert pool.stats.releases == 6 * 300


@pytest.mark.slow
@pytest.mark.parallel
class TestStress:
    def test_morton_stress_bitwise(self, medium_problem, medium_dense, rule8):
        """NT=12 Morton-ordered st-3D-exp at band 2: 4-way execution is
        bitwise equal to 1-way and numerically valid."""
        base = BandTLRMatrix.from_problem(medium_problem, rule8, band_size=2)
        g = _graph_for(base, 2)
        m1, m4 = base.copy(), base.copy()
        execute_graph_parallel(g, m1, n_workers=1)
        rep = execute_graph_parallel(g, m4, n_workers=4, collect_trace=True)
        assert rep.tasks_executed == g.n_tasks
        l1 = m1.to_dense(lower_only=True)
        l4 = m4.to_dense(lower_only=True)
        assert np.array_equal(l1, l4)
        err = np.linalg.norm(l4 @ l4.T - medium_dense) / np.linalg.norm(
            medium_dense
        )
        assert err < 1e-6
