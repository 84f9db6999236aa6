"""Chaos suite: deterministic fault injection + the recovery engine.

The central claim under test is the paper-grade one: a factorization that
absorbed *recoverable* faults (transient errors, NaN corruptions, pool
exhaustion, stalls) produces the **bitwise identical** Cholesky factor of
a fault-free run — across both executors and any worker count.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TruncationRule, obs, st_3d_exp_problem
from repro.core import tlr_cholesky
from repro.linalg.tiles import DenseTile, LowRankTile
from repro.matrix import BandTLRMatrix
from repro.runtime import (
    RecoveryManager,
    RecoveryPolicy,
    graph_for_matrix,
    execute_graph_parallel,
)
from repro.runtime.resilience import build_manager
from repro.testing import FaultClause, FaultPlan
from repro.testing.faults import _fires
from repro.utils import (
    ConfigurationError,
    PoolExhaustedError,
    RuntimeSystemError,
    TransientFaultError,
)
from repro.utils.exceptions import FaultSpecError, TaskAbortedError

FAST = RecoveryPolicy(backoff_s=0.0)  # no backoff sleeps in unit tests


def _graph_for(matrix):
    return graph_for_matrix(matrix)


@pytest.fixture(scope="module")
def base_matrix(small_problem, rule8):
    """Compressed band-1 matrix shared by the chaos tests (copy to use)."""
    return BandTLRMatrix.from_problem(small_problem, rule8, band_size=1)


@pytest.fixture(scope="module")
def baseline_factor(base_matrix):
    """The fault-free factor every chaotic run must reproduce bitwise."""
    m = base_matrix.copy()
    execute_graph_parallel(_graph_for(m), m, n_workers=1)
    return m.to_dense(lower_only=True)


# ----------------------------------------------------------------------
# Fault spec grammar
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "transient:gemm:0.05,nan:*:0.01,stall:trsm:0.1:0.5", seed=9
        )
        assert plan.seed == 9
        assert [c.kind for c in plan.clauses] == ["transient", "nan", "stall"]
        assert plan.clauses[0].kernel == "gemm"
        assert plan.clauses[1].kernel == "*"
        assert plan.clauses[2].param == 0.5

    def test_stall_gets_default_param(self):
        plan = FaultPlan.parse("stall:potrf:1.0")
        assert plan.clauses[0].param > 0

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "transient",
            "transient:gemm",
            "bogus:gemm:0.5",
            "transient:lu:0.5",
            "transient:gemm:1.5",
            "transient:gemm:-0.1",
            "transient:gemm:xyz",
            "stall:gemm:0.5:abc",
        ],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_clause_validation_direct(self):
        with pytest.raises(FaultSpecError):
            FaultClause("transient", "gemm", 2.0)

    def test_fault_spec_error_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("nonsense")


class TestDeterministicDraws:
    def test_fires_is_pure(self):
        from repro.runtime.task import TaskKind

        clause = FaultClause("transient", "gemm", 0.5)
        tid = (TaskKind.GEMM, 3, 2, 1)
        draws = [_fires(7, 0, clause, tid, 0) for _ in range(5)]
        assert len(set(draws)) == 1

    def test_seed_changes_draws(self):
        from repro.runtime.task import TaskKind

        clause = FaultClause("transient", "gemm", 0.5)
        tids = [(TaskKind.GEMM, m, n, k)
                for m in range(6) for n in range(m) for k in range(n)]
        a = [_fires(1, 0, clause, t, 0) for t in tids]
        b = [_fires(2, 0, clause, t, 0) for t in tids]
        assert a != b

    def test_rate_extremes(self):
        from repro.runtime.task import TaskKind

        tid = (TaskKind.POTRF, 0)
        assert _fires(0, 0, FaultClause("transient", "*", 1.0), tid, 0)
        assert not _fires(0, 0, FaultClause("transient", "*", 0.0), tid, 0)

    def test_injector_counts_and_exception_types(self):
        from repro.runtime.task import TaskKind

        inj = FaultPlan.parse("transient:potrf:1.0,oom:trsm:1.0").injector()
        with pytest.raises(TransientFaultError):
            inj.pre_dispatch((TaskKind.POTRF, 0), 0)
        with pytest.raises(PoolExhaustedError):
            inj.pre_dispatch((TaskKind.TRSM, 1, 0), 0)
        inj.pre_dispatch((TaskKind.SYRK, 1, 0), 0)  # no matching clause
        assert inj.counts == {"transient": 1, "oom": 1}
        assert inj.total == 2


# ----------------------------------------------------------------------
# Bitwise identity under recoverable faults
# ----------------------------------------------------------------------
class TestBitwiseRecovery:
    SPEC = "transient:*:0.08,nan:gemm:0.05,oom:trsm:0.05"

    def test_serial_executor(self, base_matrix, baseline_factor):
        m = base_matrix.copy()
        plan = FaultPlan.parse(self.SPEC, seed=3)
        rep = execute_graph_parallel(
            _graph_for(m), m, n_workers=1, faults=plan, recovery=FAST
        )
        assert rep.resilience.retries > 0
        assert rep.resilience.recoveries > 0
        assert np.array_equal(m.to_dense(lower_only=True), baseline_factor)

    @pytest.mark.parallel
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_executor_any_width(
        self, base_matrix, baseline_factor, workers
    ):
        m = base_matrix.copy()
        plan = FaultPlan.parse(self.SPEC, seed=3)
        rep = execute_graph_parallel(
            _graph_for(m), m, n_workers=workers, faults=plan, recovery=FAST
        )
        assert rep.resilience.retries > 0
        assert np.array_equal(m.to_dense(lower_only=True), baseline_factor)

    @pytest.mark.parallel
    def test_retry_counts_match_across_executors(
        self, base_matrix, baseline_factor
    ):
        plan = FaultPlan.parse(self.SPEC, seed=3)
        seq, par = base_matrix.copy(), base_matrix.copy()
        r1 = execute_graph_parallel(
            _graph_for(seq), seq, n_workers=1, faults=plan, recovery=FAST
        )
        r2 = execute_graph_parallel(
            _graph_for(par), par, n_workers=3, faults=plan, recovery=FAST
        )
        assert r1.resilience.retries == r2.resilience.retries
        assert r1.resilience.recoveries == r2.resilience.recoveries

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.01, max_value=0.15),
        kind=st.sampled_from(["transient", "nan", "oom"]),
    )
    def test_property_any_recoverable_plan(
        self, base_matrix, baseline_factor, seed, rate, kind
    ):
        # Deep retry budget: at rate 0.15 a task occasionally fails 4
        # consecutive draws, which would legitimately exhaust the
        # default budget of 3 (covered by the exhaustion tests below).
        deep = RecoveryPolicy(max_retries=12, backoff_s=0.0)
        m = base_matrix.copy()
        plan = FaultPlan(
            clauses=(FaultClause(kind, "*", rate),), seed=seed
        )
        execute_graph_parallel(
            _graph_for(m), m, n_workers=1, faults=plan, recovery=deep
        )
        assert np.array_equal(m.to_dense(lower_only=True), baseline_factor)

    def test_tlr_cholesky_routes_faults(self, base_matrix, baseline_factor):
        m = base_matrix.copy()
        rep = tlr_cholesky(
            m, faults=FaultPlan.parse(self.SPEC, seed=3), recovery=FAST
        )
        assert rep.resilience is not None
        assert np.array_equal(m.to_dense(lower_only=True), baseline_factor)


# ----------------------------------------------------------------------
# Retry budget, NPD recovery, densify fallback, watchdog
# ----------------------------------------------------------------------
class TestRecoveryPolicies:
    def test_retry_budget_exhaustion_serial(self, base_matrix):
        m = base_matrix.copy()
        plan = FaultPlan.parse("transient:potrf:1.0")  # fires every attempt
        with pytest.raises(TaskAbortedError):
            execute_graph_parallel(
                _graph_for(m), m, n_workers=1, faults=plan, recovery=FAST
            )

    @pytest.mark.parallel
    def test_retry_budget_exhaustion_parallel_wrapped(self, base_matrix):
        m = base_matrix.copy()
        plan = FaultPlan.parse("transient:potrf:1.0")
        with pytest.raises(RuntimeSystemError) as ei:
            execute_graph_parallel(
                _graph_for(m), m, n_workers=2, faults=plan, recovery=FAST
            )
        assert isinstance(ei.value.__cause__, TaskAbortedError)

    def test_backoff_is_capped_exponential(self):
        policy = RecoveryPolicy(backoff_s=0.01, backoff_cap_s=0.04)
        delays = [
            min(policy.backoff_cap_s, policy.backoff_s * 2 ** (r - 1))
            for r in (1, 2, 3, 4)
        ]
        assert delays == [0.01, 0.02, 0.04, 0.04]

    def test_npd_recovery_via_diagonal_shift(self, rule8):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((128, 128))
        a = b @ b.T / 128
        w = np.linalg.eigvalsh(a)
        a -= (w[0] + 1e-9) * np.eye(128)  # smallest eigenvalue == -1e-9

        m = BandTLRMatrix.from_dense(a.copy(), 32, rule8, band_size=4)
        from repro.utils import NotPositiveDefiniteError

        with pytest.raises(NotPositiveDefiniteError):
            tlr_cholesky(m)

        m2 = BandTLRMatrix.from_dense(a.copy(), 32, rule8, band_size=4)
        rep = tlr_cholesky(m2, recovery=RecoveryPolicy(backoff_s=0.0))
        assert rep.resilience.npd_shifts >= 1
        # The shifted factor solves a nearby SPD problem.
        ell = m2.to_dense(lower_only=True)
        assert np.isfinite(ell).all()
        shift_bound = 1e-8 * 10 ** rep.resilience.npd_shifts
        assert np.linalg.norm(ell @ ell.T - a) / np.linalg.norm(a) < shift_bound

    def test_npd_not_recovered_when_disabled(self, rule8):
        a = -np.eye(128)
        m = BandTLRMatrix.from_dense(a, 32, rule8, band_size=4)
        from repro.utils import NotPositiveDefiniteError

        with pytest.raises(NotPositiveDefiniteError):
            tlr_cholesky(
                m, recovery=RecoveryPolicy(recover_npd=False, backoff_s=0.0)
            )

    def test_densify_fallback_on_compression_error(self, base_matrix):
        from repro.runtime.task import Task, TaskKind
        from repro.utils import CompressionError

        matrix = base_matrix.copy()
        dest = next(
            ij for ij, t in matrix.tiles.items() if isinstance(t, LowRankTile)
        )
        reference = matrix.tile(*dest).to_dense().copy()
        manager = RecoveryManager(FAST)
        task = Task(
            tid=(TaskKind.GEMM, *dest, 0),
            kind=TaskKind.GEMM,
            kernel=None,
            flops=0.0,
            out_tile=dest,
        )

        def compute():
            if isinstance(matrix.tile(*dest), LowRankTile):
                raise CompressionError("cannot certify the accuracy envelope")
            return matrix.tile(*dest), None

        manager.run(task, matrix, compute)
        assert manager.report.densify_fallbacks == 1
        assert manager.report.recoveries == 1
        assert isinstance(matrix.tile(*dest), DenseTile)
        np.testing.assert_allclose(
            matrix.tile(*dest).to_dense(), reference, atol=1e-12
        )

    def test_densify_fallback_only_once(self, base_matrix):
        from repro.runtime.task import Task, TaskKind
        from repro.utils import CompressionError

        matrix = base_matrix.copy()
        dest = next(
            ij for ij, t in matrix.tiles.items() if isinstance(t, LowRankTile)
        )
        manager = RecoveryManager(FAST)
        task = Task(
            tid=(TaskKind.GEMM, *dest, 0), kind=TaskKind.GEMM,
            kernel=None, flops=0.0, out_tile=dest,
        )

        def always_fails():
            raise CompressionError("still broken after densification")

        with pytest.raises(CompressionError):
            manager.run(task, matrix, always_fails)

    @pytest.mark.parallel
    def test_watchdog_requeues_stalled_task(
        self, base_matrix, baseline_factor
    ):
        from repro.runtime.task import TaskKind

        class StallOnce:
            """Duck-typed injector: first POTRF(0) attempt hangs 30 s."""

            def __init__(self):
                self.stalled = threading.Event()

            def pre_dispatch(self, tid, attempt, cancel_event=None):
                if tid == (TaskKind.POTRF, 0) and attempt == 0:
                    self.stalled.set()
                    if cancel_event is not None and cancel_event.wait(30.0):
                        from repro.utils import StalledTaskError

                        raise StalledTaskError(f"stalled {tid}", tid)

            def corrupt_output(self, tid, attempt, tile):
                return False

        m = base_matrix.copy()
        inj = StallOnce()
        t0 = time.perf_counter()
        rep = execute_graph_parallel(
            _graph_for(m), m, n_workers=2,
            faults=inj,
            recovery=RecoveryPolicy(backoff_s=0.0, watchdog_timeout_s=0.15),
        )
        elapsed = time.perf_counter() - t0
        assert inj.stalled.is_set()
        assert rep.resilience.watchdog_requeues >= 1
        assert rep.resilience.retries >= 1
        assert elapsed < 20.0  # nowhere near the 30 s stall
        assert np.array_equal(m.to_dense(lower_only=True), baseline_factor)

    def test_build_manager_accepts_all_forms(self):
        assert build_manager(None, None) is None
        assert build_manager("transient:gemm:0.1", None) is not None
        plan = FaultPlan.parse("nan:*:0.1")
        assert build_manager(plan, None).injector is not None
        inj = plan.injector()
        assert build_manager(inj, None).injector is inj
        mgr = build_manager(None, RecoveryPolicy(max_retries=7))
        assert mgr.policy.max_retries == 7 and mgr.injector is None


# ----------------------------------------------------------------------
# Cancellation semantics (the BaseException audit)
# ----------------------------------------------------------------------
class TestCancellation:
    class _RaiseOn:
        """Duck-typed injector raising ``exc`` at one task's dispatch."""

        def __init__(self, tid, exc):
            self.tid, self.exc = tid, exc

        def pre_dispatch(self, tid, attempt, cancel_event=None):
            if tid == self.tid:
                raise self.exc

        def corrupt_output(self, tid, attempt, tile):
            return False

    @pytest.mark.parallel
    @pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
    def test_interrupts_propagate_unwrapped(self, base_matrix, exc_type):
        from repro.runtime.task import TaskKind

        m = base_matrix.copy()
        inj = self._RaiseOn((TaskKind.POTRF, 2), exc_type())
        with pytest.raises(exc_type):
            execute_graph_parallel(
                _graph_for(m), m, n_workers=2, faults=inj, recovery=FAST
            )

    @pytest.mark.parallel
    def test_ordinary_errors_still_wrapped(self, base_matrix):
        from repro.runtime.task import TaskKind

        m = base_matrix.copy()
        inj = self._RaiseOn((TaskKind.POTRF, 2), ValueError("kernel blew up"))
        with pytest.raises(RuntimeSystemError) as ei:
            execute_graph_parallel(
                _graph_for(m), m, n_workers=2, faults=inj, recovery=FAST
            )
        assert isinstance(ei.value.__cause__, ValueError)


# ----------------------------------------------------------------------
# Observability integration + the paper-scale acceptance run (b = 250)
# ----------------------------------------------------------------------
class TestObsIntegration:
    def test_counters_match_report(self, base_matrix, baseline_factor):
        m = base_matrix.copy()
        inj = FaultPlan.parse(
            "transient:*:0.08,nan:gemm:0.05", seed=3
        ).injector()
        with obs.observe() as run:
            rep = execute_graph_parallel(
                _graph_for(m), m, n_workers=1, faults=inj, recovery=FAST
            )
        retried = sum(c.value for c in run.metrics.find("task_retried"))
        recovered = sum(c.value for c in run.metrics.find("task_recovered"))
        injected = sum(c.value for c in run.metrics.find("fault_injected"))
        assert retried == rep.resilience.retries > 0
        assert recovered == rep.resilience.recoveries > 0
        assert injected == inj.total > 0

    @pytest.mark.parallel
    def test_acceptance_b250_transient_faults(self):
        """ISSUE acceptance: >=5% transient faults at b=250, parallel
        executor, bitwise-equal factor, matching obs counters."""
        problem = st_3d_exp_problem(1500, 250, seed=11)
        rule = TruncationRule(eps=1e-8)
        base = BandTLRMatrix.from_problem(problem, rule, band_size=1)
        g = _graph_for(base)

        clean = base.copy()
        execute_graph_parallel(g, clean, n_workers=4)
        want = clean.to_dense(lower_only=True)

        chaotic = base.copy()
        inj = FaultPlan.parse("transient:*:0.05", seed=2021).injector()
        with obs.observe() as run:
            rep = execute_graph_parallel(
                g, chaotic, n_workers=4, faults=inj, recovery=FAST
            )
        assert inj.counts.get("transient", 0) > 0
        assert np.array_equal(chaotic.to_dense(lower_only=True), want)
        retried = sum(c.value for c in run.metrics.find("task_retried"))
        recovered = sum(c.value for c in run.metrics.find("task_recovered"))
        assert retried == rep.resilience.retries
        assert recovered == rep.resilience.recoveries
        assert rep.resilience.retries >= rep.resilience.recoveries > 0
