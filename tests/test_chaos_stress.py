"""High-rate chaos soak (slow tier): the executors under sustained fire.

These tests hammer the recovery engine with fault rates far above the
acceptance scenario (>= 20% of dispatches failing) and audit the three
properties that matter at that intensity:

* **no deadlock** — every run terminates (a hung quiesce or a dead worker
  would trip the suite timeout);
* **no leaked pool buffers** — after recovery, every live
  :class:`~repro.runtime.memory_pool.MemoryPool` buffer is a factor array
  the factorized matrix still references;
* **unchanged numerics** — the recovered factor is bitwise identical to
  the fault-free one, and its backward error matches the accuracy budget.
"""

import threading
import time

import numpy as np
import pytest

from repro.linalg.tiles import LowRankTile
from repro.matrix import BandTLRMatrix
from repro.runtime import (
    RecoveryPolicy,
    graph_for_matrix,
    execute_graph_parallel,
    parallel_map,
)
from repro.testing import FaultPlan
from repro.utils import TransientFaultError

pytestmark = pytest.mark.slow

#: One in three dispatches fails somehow; stalls are short so the soak
#: stays fast even without a watchdog.
HEAVY = "transient:*:0.2,nan:gemm:0.1,oom:trsm:0.1,stall:syrk:0.1:0.01"

#: Deep retry budget: at these rates a task can fail several times in a
#: row, and the default budget of 3 would abort the run.
DEEP = RecoveryPolicy(max_retries=12, backoff_s=0.0)


def _graph_for(matrix):
    return graph_for_matrix(matrix)


@pytest.fixture(scope="module")
def base_matrix(small_problem, rule8):
    return BandTLRMatrix.from_problem(small_problem, rule8, band_size=1)


@pytest.fixture(scope="module")
def dense_a(base_matrix):
    return base_matrix.to_dense()


@pytest.fixture(scope="module")
def baseline_factor(base_matrix):
    m = base_matrix.copy()
    execute_graph_parallel(_graph_for(m), m, n_workers=1)
    return m.to_dense(lower_only=True)


def _audit_pool(report, matrix):
    """Every live pool buffer must be a factor the matrix references."""
    referenced = 0
    for tile in matrix.tiles.values():
        if isinstance(tile, LowRankTile):
            referenced += report.pool.owns(tile.u) + report.pool.owns(tile.v)
    assert report.pool.live_count == referenced, (
        f"{report.pool.live_count - referenced} pool buffers leaked by "
        f"failed task attempts"
    )


class TestHeavySoak:
    def test_serial_heavy_fire(self, base_matrix, baseline_factor, dense_a):
        m = base_matrix.copy()
        rep = execute_graph_parallel(
            _graph_for(m), m,
            n_workers=1,
            faults=FaultPlan.parse(HEAVY, seed=1),
            recovery=DEEP,
        )
        assert rep.resilience.retries > 20
        assert np.array_equal(m.to_dense(lower_only=True), baseline_factor)
        _audit_pool(rep, m)
        ell = m.to_dense(lower_only=True)
        resid = np.linalg.norm(ell @ ell.T - dense_a) / np.linalg.norm(dense_a)
        assert resid < 1e-6

    @pytest.mark.parallel
    @pytest.mark.parametrize("seed", range(5))
    def test_parallel_soak_across_seeds(
        self, base_matrix, baseline_factor, seed
    ):
        """Five distinct adversaries, four workers each: all terminate,
        all reproduce the clean factor, none leak pool buffers."""
        m = base_matrix.copy()
        rep = execute_graph_parallel(
            _graph_for(m), m, n_workers=4,
            faults=FaultPlan.parse(HEAVY, seed=seed),
            recovery=DEEP,
        )
        assert rep.resilience.retries > 0
        assert np.array_equal(m.to_dense(lower_only=True), baseline_factor)
        _audit_pool(rep, m)

    @pytest.mark.parallel
    def test_stall_storm_with_watchdog(self, base_matrix, baseline_factor):
        """Long stalls (5 s each) under a 100 ms watchdog: the run must
        finish in a fraction of the aggregate stall time."""
        m = base_matrix.copy()
        t0 = time.perf_counter()
        rep = execute_graph_parallel(
            _graph_for(m), m, n_workers=4,
            faults=FaultPlan.parse("stall:*:0.1:5.0", seed=7),
            recovery=RecoveryPolicy(
                max_retries=12, backoff_s=0.0, watchdog_timeout_s=0.1
            ),
        )
        elapsed = time.perf_counter() - t0
        stalls = rep.resilience.watchdog_requeues
        assert stalls > 0
        assert elapsed < stalls * 5.0 / 2
        assert np.array_equal(m.to_dense(lower_only=True), baseline_factor)

    @pytest.mark.parallel
    def test_chaos_plus_checkpoint_plus_kill_and_resume(
        self, base_matrix, baseline_factor, tmp_path
    ):
        """The full gauntlet: heavy faults AND checkpointing AND a
        mid-run kill, resumed under the same adversary."""
        from repro.runtime.task import TaskKind

        class ChaosThenKill:
            def __init__(self):
                self.inner = FaultPlan.parse(HEAVY, seed=3).injector()
                self.killed = False

            def pre_dispatch(self, tid, attempt, cancel_event=None):
                if tid == (TaskKind.POTRF, 6) and not self.killed:
                    self.killed = True
                    raise KeyboardInterrupt
                self.inner.pre_dispatch(tid, attempt, cancel_event)

            def corrupt_output(self, tid, attempt, tile):
                return self.inner.corrupt_output(tid, attempt, tile)

        killed = base_matrix.copy()
        with pytest.raises(KeyboardInterrupt):
            execute_graph_parallel(
                _graph_for(killed), killed, n_workers=3,
                faults=ChaosThenKill(), recovery=DEEP,
                checkpoint=tmp_path,
            )

        resumed = base_matrix.copy()
        rep = execute_graph_parallel(
            _graph_for(resumed), resumed, n_workers=3,
            faults=FaultPlan.parse(HEAVY, seed=3),
            recovery=DEEP,
            checkpoint=tmp_path, resume=True,
        )
        assert rep.tasks_resumed > 0
        assert np.array_equal(
            resumed.to_dense(lower_only=True), baseline_factor
        )
        _audit_pool(rep, resumed)


class TestWorkpoolRetries:
    def _flaky(self, fail_times):
        attempts = {}
        lock = threading.Lock()

        def fn(x):
            with lock:
                seen = attempts[x] = attempts.get(x, 0) + 1
            if seen <= fail_times:
                raise TransientFaultError(f"flaky item {x}")
            return x * x

        return fn, attempts

    @pytest.mark.parametrize("workers", [1, 4])
    def test_retries_absorb_transients(self, workers):
        fn, attempts = self._flaky(fail_times=2)
        out = parallel_map(fn, range(20), workers, retries=3)
        assert out == [x * x for x in range(20)]
        assert all(n == 3 for n in attempts.values())

    def test_budget_exhaustion_raises(self):
        fn, _ = self._flaky(fail_times=5)
        with pytest.raises(TransientFaultError):
            parallel_map(fn, range(4), 2, retries=2)

    def test_zero_retries_is_old_behavior(self):
        fn, _ = self._flaky(fail_times=1)
        with pytest.raises(TransientFaultError):
            parallel_map(fn, range(4), 1)

    def test_non_transient_errors_propagate_immediately(self):
        calls = []

        def fn(x):
            calls.append(x)
            raise ValueError("not a fault")

        with pytest.raises(ValueError):
            parallel_map(fn, range(4), 1, retries=5)
        assert len(calls) == 1
