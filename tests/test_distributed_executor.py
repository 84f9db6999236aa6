"""Unit tests: the multi-process distributed executor places tiles per
the hybrid band distribution, realizes exactly the LOCAL/REMOTE dataflow
the analytical classifier and the simulator predict, computes the factor
bitwise-identically to the sequential/thread executors at any rank
count, and survives rank loss via checkpoint/restart — all behind the
unified Executor protocol."""

import dataclasses
import multiprocessing
import os
import queue
import threading
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro import st_3d_exp_problem
from repro.core import TLRSolver, tlr_cholesky
from repro.distribution import (
    BandDistribution,
    ProcessGrid,
    default_distribution,
)
from repro.matrix import BandTLRMatrix
from repro.runtime import (
    SHAHEEN_II_LIKE,
    ExecutorRun,
    ProcessExecutor,
    SequentialExecutor,
    SimExecutor,
    ThreadExecutor,
    binomial_children,
    graph_for_matrix,
    classify_dataflow,
    execute_graph,
    execute_graph_distributed,
    execute_graph_parallel,
    get_executor,
    placement_of,
    simulate,
    simulate_schedule,
)
from repro.utils import ConfigurationError, RuntimeSystemError


@pytest.fixture(autouse=True)
def nothing_outlives_a_run():
    """No rank process, rank or feeder thread, or pipe end survives the
    call that created it."""
    resource_tracker.ensure_running()  # its pipe is opened once, lazily
    threads = set(threading.enumerate())
    fds = set(os.listdir("/proc/self/fd"))
    yield
    assert not multiprocessing.active_children()
    assert set(threading.enumerate()) <= threads
    assert set(os.listdir("/proc/self/fd")) <= fds


def _graph_for(matrix, band):
    assert band == matrix.band_size
    return graph_for_matrix(matrix)


#: Rank 0 owns 43 of the 100 tasks of the fused NT=8/band-2 graph on two
#: ranks (the default 2x1 grid); dying after 40 of them leaves a late
#: checkpoint frontier (72 tasks).
_KILL_AFTER = 40


def _dist_for(graph, ranks):
    return default_distribution(graph, ranks)


@pytest.fixture()
def band2(small_problem, rule8):
    return BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)


@pytest.fixture()
def band2_factor(small_problem, rule8):
    """Reference factor from the sequential graph executor."""
    m = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
    execute_graph(_graph_for(m, 2), m)
    return m.to_dense(lower_only=True)


class TestPlacement:
    def test_placement_is_owner_computes(self, band2):
        g = _graph_for(band2, 2)
        dist = _dist_for(g, 3)
        placement = placement_of(g, dist)
        assert set(placement) == set(g.tasks)
        for tid, task in g.tasks.items():
            assert placement[tid] == dist.owner(*task.out_tile)

    def test_report_placement_matches_default_distribution(self, band2):
        g = _graph_for(band2, 2)
        rep = execute_graph_distributed(g, band2, n_ranks=2, _inline=True)
        assert rep.placement == placement_of(g, _dist_for(g, 2))

    @pytest.mark.parametrize("ranks", [2, 3, 4])
    def test_simulator_and_executor_resolve_the_same_default(
        self, band2, ranks
    ):
        """What keeps realized comm == simulated comm without a special
        case: "no distribution given" means one placement everywhere."""
        g = _graph_for(band2, 2)
        sim = simulate_schedule(g, ranks=ranks, collect_trace=True)
        predicted = SimExecutor(n_ranks=ranks).execute(g, band2).report
        rep = execute_graph_distributed(g, band2, n_ranks=ranks, _inline=True)
        assert {rec[0]: rec[1] for rec in sim.trace} == rep.placement
        assert sim.comm == predicted.comm == rep.comm

    def test_explicit_distribution_is_never_overridden(self, band2):
        g = _graph_for(band2, 2)
        wide = BandDistribution(ProcessGrid(1, 2), band_size=2)
        assert default_distribution(g, 2) != wide
        rep = execute_graph_distributed(
            g, band2, distribution=wide, _inline=True
        )
        assert rep.placement == placement_of(g, wide)
        sim = SimExecutor(distribution=wide).execute(g, band2).report
        assert sim.comm == rep.comm

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
    def test_binomial_children_cover_dests_once(self, n):
        dests = list(range(10, 10 + n))
        seen = []

        def walk(subtree):
            for child, rest in binomial_children(subtree):
                seen.append(child)
                walk(rest)

        walk(dests)
        assert sorted(seen) == sorted(dests)
        # The root itself sends O(log n) messages, not n.
        root_sends = len(binomial_children(dests))
        assert root_sends <= int(np.ceil(np.log2(n))) + 1


class TestDataflowReconciliation:
    """Realized communication must equal what the analytical classifier
    and the DES predict — the executor is the ground truth that validates
    both models."""

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_realized_dataflow_matches_classifier(self, band2, ranks):
        g = _graph_for(band2, 2)
        rep = execute_graph_distributed(
            g, band2, n_ranks=ranks, _inline=True
        )
        expected = classify_dataflow(g, _dist_for(g, ranks))
        assert rep.dataflow.edges == expected.edges
        assert rep.dataflow.bytes_remote == expected.bytes_remote
        assert rep.dataflow.remote_total == expected.remote_total

    def test_realized_comm_matches_simulator(self, band2):
        g = _graph_for(band2, 2)
        dist = _dist_for(g, 3)
        rep = execute_graph_distributed(
            g, band2, distribution=dist, _inline=True
        )
        machine = dataclasses.replace(
            SHAHEEN_II_LIKE, nodes=3, cores_per_node=1
        )
        sim = simulate(g, dist, machine)
        assert rep.comm.local_edges == sim.comm.local_edges
        assert rep.comm.remote_edges == sim.comm.remote_edges
        assert rep.comm.messages == sim.comm.messages
        assert rep.comm.bytes_sent == sim.comm.bytes_sent
        assert rep.comm.broadcasts == sim.comm.broadcasts

    def test_wire_traffic_bounded_by_modelled(self, band2):
        g = _graph_for(band2, 2)
        rep = execute_graph_distributed(g, band2, n_ranks=3, _inline=True)
        # Binomial forwarding can add hops but never exceeds one message
        # per (edge, dest); the modelled count is the per-dest dedup.
        assert rep.wire_messages >= rep.comm.messages
        assert rep.wire_bytes > 0


class TestDeterminism:
    def test_processes_bitwise_vs_sequential(self, band2, band2_factor):
        g = _graph_for(band2, 2)
        rep = execute_graph_distributed(g, band2, n_ranks=2)
        assert rep.tasks_executed == g.n_tasks
        assert np.array_equal(
            band2.to_dense(lower_only=True), band2_factor
        )

    def test_rank_counts_agree_bitwise(self, small_problem, rule8,
                                       band2_factor):
        for ranks in (3, 4):
            m = BandTLRMatrix.from_problem(
                small_problem, rule8, band_size=2
            )
            execute_graph_distributed(
                _graph_for(m, 2), m, n_ranks=ranks, _inline=True
            )
            assert np.array_equal(
                m.to_dense(lower_only=True), band2_factor
            ), f"rank count {ranks} diverged"

    def test_inline_mode_bitwise(self, band2, band2_factor):
        g = _graph_for(band2, 2)
        rep = execute_graph_distributed(g, band2, n_ranks=2, _inline=True)
        assert rep.tasks_executed == g.n_tasks
        assert np.array_equal(
            band2.to_dense(lower_only=True), band2_factor
        )

    @pytest.mark.parametrize("ranks,inline", [(6, False), (7, True)])
    def test_more_ranks_than_tile_rows(self, rule8, ranks, inline):
        """Tall default grids make ranks that own no tile and no task
        ordinary: they finish idle instead of waiting on their inbox."""
        problem = st_3d_exp_problem(256, 64, seed=42)  # NT = 4
        m = BandTLRMatrix.from_problem(problem, rule8, band_size=2)
        ref = m.copy()
        tlr_cholesky(ref)
        g = _graph_for(m, 2)
        rep = execute_graph_distributed(
            g, m, n_ranks=ranks, collect_trace=True, _inline=inline,
            timeout_s=20.0,
        )
        assert np.array_equal(
            m.to_dense(lower_only=True), ref.to_dense(lower_only=True)
        )
        worked = {rec[1] for rec in rep.trace}
        idle = set(range(ranks)) - worked
        assert idle and worked == set(rep.placement.values())
        assert all(rep.busy[r] == 0.0 for r in idle)
        assert rep.tasks_executed == g.n_tasks

    def test_launch_run_gather_partition_the_makespan(self, band2):
        g = _graph_for(band2, 2)
        rep = execute_graph_distributed(g, band2, n_ranks=2)
        parts = (rep.launch_s, rep.run_s, rep.gather_s)
        assert all(part > 0.0 for part in parts)
        assert sum(parts) == pytest.approx(rep.makespan, abs=5e-3)

    def test_flops_and_stats_match_threads(self, small_problem, rule8):
        a = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
        b = a.copy()
        g = _graph_for(a, 2)
        rep_d = execute_graph_distributed(g, a, n_ranks=2, _inline=True)
        rep_t = execute_graph_parallel(g, b, n_workers=2)
        assert rep_d.counter.total == pytest.approx(rep_t.counter.total)
        assert rep_d.max_rank_seen == rep_t.max_rank_seen
        assert rep_d.rank_growth_events == rep_t.rank_growth_events

    def test_rank_accounting_reaches_the_report(self, small_problem, rule8):
        """Pool statistics and tracker figures cross the process boundary
        and add up to what the one-worker core reports for the same
        factorization (they used to be dropped: all zeros)."""
        a = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
        b = a.copy()
        g = _graph_for(a, 2)
        rep = execute_graph_distributed(g, a, n_ranks=2)
        core = execute_graph(g, b)
        got, want = rep.pool.stats, core.pool.stats
        assert got.allocations + got.reuses == want.allocations + want.reuses > 0
        assert got.releases == want.releases
        assert got.allocations + got.reuses - got.releases == core.pool.live_count
        assert got.outstanding_bytes == want.outstanding_bytes > 0
        assert got.peak_bytes >= got.outstanding_bytes
        assert rep.max_rank_seen == core.max_rank_seen > 0
        assert rep.rank_growth_events == core.rank_growth_events
        assert rep.tracker.current_elements == core.tracker.current_elements
        assert rep.tracker.current_elements == a.memory_elements()
        assert rep.tracker.reallocations == core.tracker.reallocations > 0
        assert rep.tracker.peak_elements >= core.tracker.current_elements

    def test_trace_covers_every_task_once(self, band2):
        g = _graph_for(band2, 2)
        rep = execute_graph_distributed(
            g, band2, n_ranks=2, _inline=True, collect_trace=True
        )
        executed = [rec[0] for rec in rep.trace]
        assert len(executed) == g.n_tasks
        assert set(executed) == set(g.tasks)
        ranks = {rec[1] for rec in rep.trace}
        assert ranks == set(range(2))


class TestResilience:
    def test_killed_rank_restarts_and_recovers(self, band2, band2_factor,
                                               tmp_path):
        g = _graph_for(band2, 2)
        rep = execute_graph_distributed(
            g, band2, n_ranks=2,
            checkpoint=str(tmp_path / "ckpt"),
            _chaos_kill=(1, 8),
        )
        assert rep.rank_restarts >= 1
        assert rep.resilience is not None
        assert rep.resilience.recoveries >= 1
        assert np.array_equal(
            band2.to_dense(lower_only=True), band2_factor
        )

    def test_survivors_do_not_wait_for_a_killed_peer(self, rule8,
                                                     monkeypatch):
        """Rank 0 dies with tiles for both peers in its feeders: each
        survivor reads EOF on rank 0's pipe alone and leaves on the
        controller's stop.  (A truncated message in a shared inbox queue
        held the survivor until the 2 s join timeout and a terminate.)"""
        terminated = []
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "terminate",
            lambda self: terminated.append(self.name),
        )
        problem = st_3d_exp_problem(600, 50, seed=42)
        m = BandTLRMatrix.from_problem(problem, rule8, band_size=2)
        g = _graph_for(m, 2)
        start = time.perf_counter()
        execute_graph_distributed(g, m.copy(), n_ranks=3)
        clean = time.perf_counter() - start
        for _ in range(5):
            start = time.perf_counter()
            with pytest.raises(RuntimeSystemError, match="lost rank"):
                execute_graph_distributed(
                    g, m.copy(), n_ranks=3, max_restarts=0,
                    _chaos_kill=(0, 30),
                )
            assert time.perf_counter() - start < clean + 1.0
        assert not terminated

    def test_truncated_message_is_the_dead_peers_loss(self):
        """The mechanism, deterministically: a peer that died mid-message
        is dropped from the inbox; the other senders still get through."""
        from repro.runtime.distributed import _PipeInbox

        dead_r, dead_w = multiprocessing.Pipe(duplex=False)
        live_r, live_w = multiprocessing.Pipe(duplex=False)
        os.write(dead_w.fileno(), (1 << 20).to_bytes(4, "big") + b"cut")
        dead_w.close()
        inbox = _PipeInbox([dead_r, live_r])
        live_w.send(("stop",))
        assert inbox.get(timeout=1.0) == ("stop",)
        with pytest.raises(queue.Empty):
            inbox.get(timeout=0.05)
        for end in (dead_r, live_r, live_w):
            end.close()

    def test_exhausted_restarts_then_manual_resume(self, small_problem,
                                                   rule8, band2_factor,
                                                   tmp_path):
        ckpt = str(tmp_path / "ckpt")
        m = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
        g = _graph_for(m, 2)
        with pytest.raises(RuntimeSystemError):
            execute_graph_distributed(
                g, m, n_ranks=2, checkpoint=ckpt,
                max_restarts=0, _chaos_kill=(0, _KILL_AFTER),
            )
        m2 = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
        # Most final tiles had streamed to the controller when rank 0
        # died; none of them reached the caller's matrix.
        assert np.array_equal(m.to_dense(), m2.to_dense())
        rep = execute_graph_distributed(
            g, m2, n_ranks=2, checkpoint=ckpt, resume=True
        )
        assert rep.tasks_resumed > 0
        assert rep.tasks_executed == g.n_tasks - rep.tasks_resumed
        assert np.array_equal(
            m2.to_dense(lower_only=True), band2_factor
        )

    def test_checkpoint_interchange_with_sequential(self, small_problem,
                                                    rule8, band2_factor,
                                                    tmp_path):
        """A checkpoint written under the process executor restores under
        the sequential executor — the archive format is backend-neutral."""
        ckpt = str(tmp_path / "ckpt")
        m = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
        g = _graph_for(m, 2)
        with pytest.raises(RuntimeSystemError):
            execute_graph_distributed(
                g, m, n_ranks=2, checkpoint=ckpt,
                max_restarts=0, _chaos_kill=(0, _KILL_AFTER),
            )
        m2 = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
        rep = execute_graph(g, m2, checkpoint=ckpt, resume=True)
        assert rep.tasks_resumed > 0
        assert np.array_equal(
            m2.to_dense(lower_only=True), band2_factor
        )


class TestExecutorProtocol:
    def test_get_executor_resolves_names(self):
        assert isinstance(get_executor("sequential"), SequentialExecutor)
        assert isinstance(get_executor("threads"), ThreadExecutor)
        assert isinstance(get_executor("processes"), ProcessExecutor)
        assert isinstance(get_executor("sim"), SimExecutor)

    def test_get_executor_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            get_executor("mpi")
        with pytest.raises(ConfigurationError):
            get_executor(None)

    def test_get_executor_instance_passthrough(self):
        ex = ProcessExecutor(n_ranks=3)
        assert get_executor(ex) is ex
        with pytest.raises(ConfigurationError):
            get_executor(ex, n_ranks=4)

    def test_run_delegates_to_report(self, band2):
        g = _graph_for(band2, 2)
        run = ThreadExecutor(n_workers=2).execute(g, band2)
        assert isinstance(run, ExecutorRun)
        assert run.executor == "threads"
        assert not run.predicted
        assert run.tasks_executed == g.n_tasks  # delegated attribute
        assert run.makespan == run.report.makespan

    def test_same_factor_across_all_numerical_backends(
        self, small_problem, rule8, band2_factor
    ):
        for ex in (SequentialExecutor(), ThreadExecutor(n_workers=3),
                   ProcessExecutor(n_ranks=2)):
            m = BandTLRMatrix.from_problem(
                small_problem, rule8, band_size=2
            )
            run = ex.execute(_graph_for(m, 2), m)
            assert run.executor == ex.name
            assert np.array_equal(
                m.to_dense(lower_only=True), band2_factor
            ), f"{ex.name} diverged"

    def test_sim_executor_predicts_without_touching_matrix(self, band2):
        g = _graph_for(band2, 2)
        before = band2.to_dense(lower_only=True)
        run = SimExecutor(n_ranks=2).execute(g, band2, collect_trace=True)
        assert run.predicted
        assert run.executor == "sim"
        assert run.report.makespan > 0
        assert run.report.comm.remote_edges > 0
        assert np.array_equal(band2.to_dense(lower_only=True), before)

    def test_sim_executor_rejects_resilience(self, band2):
        g = _graph_for(band2, 2)
        with pytest.raises(ConfigurationError):
            SimExecutor(n_ranks=2).execute(g, band2, faults="nan:*:0.5")
        with pytest.raises(ConfigurationError):
            SimExecutor(n_ranks=2).execute(g, band2, checkpoint="/tmp/x")

    def test_sim_executor_rejects_machine_rank_mismatch(self, band2):
        g = _graph_for(band2, 2)
        machine = dataclasses.replace(
            SHAHEEN_II_LIKE, nodes=4, cores_per_node=1
        )
        with pytest.raises(ConfigurationError):
            SimExecutor(n_ranks=2, machine=machine).execute(g, band2)


class TestFactorizeWiring:
    def test_tlr_cholesky_executor_processes(self, small_problem, rule8):
        a = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
        b = a.copy()
        rep = tlr_cholesky(a, executor="processes", n_ranks=2)
        tlr_cholesky(b)
        assert rep.executor == "processes"
        assert rep.comm is not None
        assert rep.comm.remote_edges > 0
        assert np.array_equal(
            a.to_dense(lower_only=True), b.to_dense(lower_only=True)
        )

    def test_tlr_cholesky_executor_threads_via_n_ranks(self, small_problem,
                                                       rule8):
        m = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
        rep = tlr_cholesky(m, executor="threads", n_ranks=3)
        assert rep.executor == "threads"
        assert rep.comm is None

    def test_solver_passthrough(self, small_problem):
        solver = TLRSolver.from_problem(
            small_problem, accuracy=1e-8, band_size=2
        )
        rep = solver.factorize(executor="processes", n_ranks=2)
        assert rep.executor == "processes"
        assert solver.is_factorized

    def test_guards(self, small_problem, rule8):
        m = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
        with pytest.raises(ConfigurationError):
            tlr_cholesky(m, executor="threads", n_workers=2)
        with pytest.raises(ConfigurationError):
            tlr_cholesky(m, n_ranks=2)
        with pytest.raises(ConfigurationError, match="sequential"):
            tlr_cholesky(m, executor="sequential", n_ranks=2)
        with pytest.raises(ConfigurationError):
            tlr_cholesky(m, executor="sim")


class TestGuards:
    def test_chaos_kill_needs_real_processes(self, band2):
        g = _graph_for(band2, 2)
        with pytest.raises(ConfigurationError):
            execute_graph_distributed(
                g, band2, n_ranks=2, _inline=True, _chaos_kill=(0, 1)
            )

    def test_missing_input_is_a_deadline_error_not_a_hang(
        self, band2, monkeypatch
    ):
        """A rank whose remote input never arrives blocks on its inbox
        only until the deadline, then fails typed."""
        from repro.runtime import distributed

        monkeypatch.setattr(
            distributed._RankLink, "send_output", lambda self, tid: None
        )
        outcome = []

        def run():
            try:
                execute_graph_distributed(
                    _graph_for(band2, 2), band2, n_ranks=2, _inline=True,
                    timeout_s=0.5,
                )
            except BaseException as exc:  # noqa: BLE001 - recorded below
                outcome.append(exc)

        helper = threading.Thread(target=run, daemon=True)
        helper.start()
        helper.join(timeout=10.0)
        assert not helper.is_alive(), "ranks hung on a missing input"
        assert len(outcome) == 1 and type(outcome[0]) is RuntimeSystemError
        assert "exceeded" in str(outcome[0])

    def test_live_injector_rejected(self, band2):
        from repro.testing import FaultPlan

        g = _graph_for(band2, 2)
        injector = FaultPlan.parse("nan:*:0.01", seed=0).injector()
        with pytest.raises(ConfigurationError):
            execute_graph_distributed(
                g, band2, n_ranks=2, _inline=True, faults=injector
            )

    def test_distribution_rank_mismatch(self, band2):
        g = _graph_for(band2, 2)
        with pytest.raises(ConfigurationError):
            execute_graph_distributed(
                g, band2, n_ranks=3, distribution=_dist_for(g, 2)
            )
