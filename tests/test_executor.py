"""The one execution core.

One worker of ``execute_graph_parallel`` runs its loop inline, and
every rank of the process executor is one inline worker of the same loop,
so one differential test covers every way to run a graph: the reference
loops against the core (on the fused graph) across worker counts,
scheduler policies, rank counts and fresh/resumed runs — bitwise.
The guards, the failure rule, the single deadlock rule and the reporting
surface are tested here once instead of once per executor name.
"""

import ast
import collections
import copy
import dataclasses
import shutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import TruncationRule, st_3d_exp_problem
from repro.core import tlr_cholesky
from repro.distribution import default_distribution
from repro.linalg import DenseTile, LowRankTile
from repro.matrix import BandTLRMatrix
from repro.runtime import (
    CheckpointConfig,
    DistributedExecutionReport,
    ExecutionReport,
    build_cholesky_graph,
    graph_for_matrix,
    execute_graph_distributed,
    execute_graph_parallel,
    placement_of,
)
from repro.runtime import distributed as distributed_mod
from repro.runtime import executor as executor_mod
from repro.runtime.task import Edge, TaskKind
from repro.testing import reference_cholesky
from repro.utils import (
    NotPositiveDefiniteError,
    RuntimeSystemError,
    SchedulingError,
)


def _graph_for(matrix):
    """The fused graph ``tlr_cholesky`` executes (one rounding per tile)."""
    return graph_for_matrix(matrix)


def _assert_factors_bitwise(got, want):
    for ij, t_want in want.tiles.items():
        t_got = got.tile(*ij)
        assert type(t_got) is type(t_want), ij
        if isinstance(t_want, DenseTile):
            assert np.array_equal(t_got.data, t_want.data), ij
        else:
            assert t_got.dtype == t_want.dtype, ij
            assert np.array_equal(t_got.u, t_want.u), ij
            assert np.array_equal(t_got.v, t_want.v), ij


def _assert_pool_consistent(report, matrix):
    """Every live pool buffer is a factor the matrix still references."""
    referenced = sum(
        report.pool.owns(t.u) + report.pool.owns(t.v)
        for t in matrix.tiles.values()
        if isinstance(t, LowRankTile)
    )
    assert report.pool.live_count == referenced


def _assert_same_accounting(rep, ref_report):
    """Flops per kernel class and rank statistics of the reference loops."""
    want = ref_report.counter
    assert rep.counter.per_class_count == want.per_class_count
    assert rep.counter.per_class.keys() == want.per_class.keys()
    for kind, flops in want.per_class.items():
        assert rep.counter.per_class[kind] == pytest.approx(flops, rel=1e-12)
    assert rep.rank_growth_events == ref_report.rank_growth_events
    assert rep.max_rank_seen == ref_report.max_rank_seen


def _resume_from(ckpt, private, ntiles):
    """Keywords resuming from a private copy of ``ckpt`` (the resumed run
    appends its own checkpoints).  ``every=NT``: only the final checkpoint
    is written, so a case times the resumed half-run, not the archive
    writer."""
    shutil.copytree(ckpt, private, dirs_exist_ok=True)
    return {
        "checkpoint": CheckpointConfig(directory=private, every=ntiles),
        "resume": True,
    }


class _KillAt:
    """Duck-typed injector: raise KeyboardInterrupt at one task's dispatch."""

    def __init__(self, tid):
        self.tid = tid

    def pre_dispatch(self, tid, attempt, cancel_event=None):
        if tid == self.tid:
            raise KeyboardInterrupt

    def corrupt_output(self, tid, attempt, tile):
        return False


#: tile size -> (N, seed, band, eps): a wide band of small tiles and a
#: narrow band of larger ones.
DIFF_CASES = {50: (1000, 2021, 8, 1e-3), 100: (800, 3, 2, 1e-4)}


@pytest.fixture(scope="module", params=sorted(DIFF_CASES), ids="b{}".format)
def diff_case(request, tmp_path_factory):
    """Base matrix, reference-loop factor and a mid-run checkpoint."""
    n, seed, band, eps = DIFF_CASES[request.param]
    problem = st_3d_exp_problem(n, request.param, seed=seed)
    base = BandTLRMatrix.from_problem(problem, TruncationRule(eps=eps), band)
    ref = base.copy()
    ref_report = reference_cholesky(ref)
    assert ref_report.max_rank_seen > 0  # low-rank updates were rounded
    # A run killed half way at ONE worker leaves the checkpoint every
    # resumed case (at 1, 2 and 3 workers) restarts from.
    ckpt = tmp_path_factory.mktemp(f"ckpt-b{request.param}")
    with pytest.raises(KeyboardInterrupt):
        execute_graph_parallel(
            _graph_for(base), base.copy(),
            n_workers=1,
            faults=_KillAt((TaskKind.POTRF, base.ntiles // 2)),
            checkpoint=CheckpointConfig(directory=ckpt, every=2),
        )
    assert list(ckpt.glob("ckpt-*.json"))
    # Pool buffers the one-worker core leaves checked out, fresh and
    # resumed from that checkpoint: what the ranks' merged pool
    # statistics must add up to (the audit itself runs on the core).
    live = {}
    for resumed in (False, True):
        kwargs = {}
        if resumed:
            copy = tmp_path_factory.mktemp(f"ckpt-copy-b{request.param}")
            kwargs = _resume_from(ckpt, copy, base.ntiles)
        m = base.copy()
        rep = execute_graph_parallel(_graph_for(m), m, n_workers=1, **kwargs)
        _assert_pool_consistent(rep, m)
        live[resumed] = rep.pool.live_count
    return base, ref, ref_report, ckpt, live


class TestDifferential:
    """Reference loops == the core, for every way to configure it."""

    @pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
    @pytest.mark.parametrize("scheduler", ["priority", "fifo", "lifo"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_core_matches_reference_loops(
        self, diff_case, tmp_path, n_workers, scheduler, resumed
    ):
        base, ref, ref_report, ckpt, _ = diff_case
        m = base.copy()
        graph = _graph_for(m)
        kwargs = _resume_from(ckpt, tmp_path, base.ntiles) if resumed else {}
        rep = execute_graph_parallel(
            graph, m, n_workers=n_workers, scheduler=scheduler, **kwargs
        )
        _assert_factors_bitwise(m, ref)
        _assert_pool_consistent(rep, m)
        assert isinstance(rep, ExecutionReport)
        assert rep.tasks_resumed + rep.tasks_executed == graph.n_tasks
        if resumed:
            assert 0 < rep.tasks_resumed < graph.n_tasks
            return
        _assert_same_accounting(rep, ref_report)

    @pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
    @pytest.mark.parametrize("ranks", [2, 3, 4])
    def test_ranks_match_reference_loops(
        self, diff_case, tmp_path, ranks, resumed
    ):
        """The processes arm: every rank is one inline worker of the
        core, fresh and resumed from the ONE-worker core's checkpoint."""
        base, ref, ref_report, ckpt, live = diff_case
        m = base.copy()
        graph = _graph_for(m)
        kwargs = _resume_from(ckpt, tmp_path, base.ntiles) if resumed else {}
        rep = execute_graph_distributed(
            graph, m, n_ranks=ranks, collect_trace=True, _inline=True,
            **kwargs,
        )
        _assert_factors_bitwise(m, ref)
        assert isinstance(rep, ExecutionReport)
        assert rep.tasks_resumed + rep.tasks_executed == graph.n_tasks
        # Every task that ran, ran exactly once, on the rank that owns it.
        ran = collections.Counter(rec[0] for rec in rep.trace)
        assert set(ran.values()) == {1} and len(ran) == rep.tasks_executed
        assert all(rep.placement[rec[0]] == rec[1] for rec in rep.trace)
        # Pool audit after the gather, on the merged statistics.
        stats = rep.pool.stats
        assert stats.allocations + stats.reuses - stats.releases == live[resumed]
        if resumed:
            assert 0 < rep.tasks_resumed < graph.n_tasks
            return
        assert live[resumed] > 0
        _assert_same_accounting(rep, ref_report)

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_core_resumes_a_ranks_checkpoint(self, diff_case, tmp_path, ranks):
        """The reverse direction: a run on real rank processes loses rank
        0 two thirds in; the one-worker core finishes it from the
        controller-merged checkpoint."""
        base, ref = diff_case[:2]
        graph = _graph_for(base)
        dist = default_distribution(graph, ranks)
        owned = collections.Counter(placement_of(graph, dist).values())
        with pytest.raises(RuntimeSystemError, match="lost rank"):
            execute_graph_distributed(
                graph, base.copy(), n_ranks=ranks,
                checkpoint=CheckpointConfig(tmp_path, every=1),
                max_restarts=0, _chaos_kill=(0, 2 * owned[0] // 3),
            )
        m = base.copy()
        rep = execute_graph_parallel(
            graph, m, n_workers=1, resume=True,
            checkpoint=CheckpointConfig(tmp_path, every=base.ntiles),
        )
        _assert_factors_bitwise(m, ref)
        _assert_pool_consistent(rep, m)
        assert 0 < rep.tasks_resumed < graph.n_tasks
        assert rep.tasks_resumed + rep.tasks_executed == graph.n_tasks

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_core_consumes_pending_tiles(self, n_workers):
        """A deferred assembly (what an MLE step factorizes): the fused
        GEMM generates and compresses each pending tile, in the loops and
        in the core alike."""
        n, seed, band, eps = DIFF_CASES[100]
        problem = st_3d_exp_problem(n, 100, seed=seed)

        def deferred():
            return BandTLRMatrix.from_problem(
                problem, TruncationRule(eps=eps), band, defer=True
            )

        ref = deferred()
        ref_report = reference_cholesky(ref)
        m = deferred()
        rep = execute_graph_parallel(_graph_for(m), m, n_workers=n_workers)
        _assert_factors_bitwise(m, ref)
        _assert_pool_consistent(rep, m)
        _assert_same_accounting(rep, ref_report)


class TestOneCore:
    def test_tlr_cholesky_defaults_to_one_inline_worker(
        self, small_tlr, monkeypatch
    ):
        """``tlr_cholesky(m)`` is the core at one inline worker, bitwise
        the oracle loops."""
        seen = []
        core = executor_mod.execute_graph_parallel

        def spy(graph, matrix, **kwargs):
            seen.append(kwargs["n_workers"])
            return core(graph, matrix, **kwargs)

        monkeypatch.setattr(executor_mod, "execute_graph_parallel", spy)
        ref, m = small_tlr.copy(), small_tlr.copy()
        reference_cholesky(ref)
        rep = tlr_cholesky(m)
        assert seen == [1] and rep.executor == "threads"
        _assert_factors_bitwise(m, ref)

    def test_only_repro_testing_reaches_the_oracle(self):
        """The loops are the tests' oracle, never a production path: no
        module of ``repro`` outside ``repro.testing`` imports or names
        ``reference_cholesky``."""
        root = Path(repro.__file__).parent
        for path in root.rglob("*.py"):
            if path.relative_to(root).parts[0] == "testing":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                else:
                    continue
                for name in names:
                    assert not name.endswith(
                        ("reference_cholesky", "testing.reference")
                    ), path

    def test_one_report_type(self, small_tlr):
        g = _graph_for(small_tlr)
        one = execute_graph_parallel(
            g, small_tlr.copy(), n_workers=1, collect_trace=True
        )
        two = execute_graph_parallel(
            g, small_tlr.copy(), n_workers=2, collect_trace=True
        )
        assert type(one) is type(two) is ExecutionReport
        assert one.n_workers == 1 and one.busy.shape == (1,)
        assert one.makespan > 0 and len(one.trace) == g.n_tasks

    def test_one_worker_runs_inline(self, small_tlr):
        """No thread is started at one worker: every task runs on the
        calling thread."""
        seen = set()

        class Spy:
            def pre_dispatch(self, tid, attempt, cancel_event=None):
                seen.add(threading.current_thread())

            def corrupt_output(self, tid, attempt, tile):
                return False

        execute_graph_parallel(
            _graph_for(small_tlr), small_tlr.copy(), n_workers=1, faults=Spy()
        )
        assert seen == {threading.current_thread()}


    @pytest.mark.parametrize("ranks", [2, 3])
    def test_each_rank_is_one_call_into_the_core(
        self, small_tlr, monkeypatch, ranks
    ):
        """A rank enters ``execute_graph_parallel`` exactly once, at one
        inline worker, and only the core runs and commits tasks."""
        entered, callers = [], set()
        core = executor_mod.execute_graph_parallel
        compute = executor_mod._compute_task

        def spy_core(graph, matrix, **kwargs):
            entered.append((threading.current_thread().name, kwargs["n_workers"]))
            return core(graph, matrix, **kwargs)

        def spy_compute(*args):
            callers.add(sys._getframe(1).f_globals["__name__"])
            return compute(*args)

        monkeypatch.setattr(distributed_mod, "execute_graph_parallel", spy_core)
        monkeypatch.setattr(executor_mod, "_compute_task", spy_compute)
        g = _graph_for(small_tlr)
        rep = execute_graph_distributed(g, small_tlr, n_ranks=ranks, _inline=True)
        assert rep.tasks_executed == g.n_tasks
        assert sorted(entered) == [(f"repro-rank-{r}", 1) for r in range(ranks)]
        assert callers == {"repro.runtime.executor"}
        for name in ("_compute_task", "_commit_task", "build_manager"):
            assert not hasattr(distributed_mod, name)

    def test_distributed_report_is_the_core_report(self):
        """The ranks' report adds communication fields and the
        controller's launch/run/gather partition to the one report type
        and re-declares nothing of it."""
        assert issubclass(DistributedExecutionReport, ExecutionReport)
        own = {n for n in vars(DistributedExecutionReport) if n[:2] != "__"}
        base = {n for n in vars(ExecutionReport) if n[:2] != "__"}
        fields = set(DistributedExecutionReport.__annotations__)
        assert fields == {
            "comm", "dataflow", "wire_messages", "wire_bytes", "placement",
            "rank_restarts", "launch_s", "run_s", "gather_s",
        }
        assert own <= fields and not fields & (base | set(ExecutionReport.__annotations__))


#: How a task's NotPositiveDefiniteError reaches the caller of
#: tlr_cholesky: unchanged where no boundary is crossed, re-raised as
#: itself with the executor's RuntimeSystemError (original chained) as
#: its cause across a thread or a process.
FAILURE_PATHS = {
    "inline-core": ({}, False),
    "threads": ({"n_workers": 2}, True),
    "processes": ({"executor": "processes", "n_ranks": 2}, True),
}


class TestFailureRule:
    @pytest.mark.parametrize("path", sorted(FAILURE_PATHS))
    def test_not_positive_definite_keeps_its_type(self, small_tlr, path):
        how, wrapped = FAILURE_PATHS[path]
        k = small_tlr.ntiles // 2
        diag = small_tlr.tile(k, k).data
        diag[...] = -np.eye(*diag.shape)
        with pytest.raises(Exception) as info:
            tlr_cholesky(small_tlr, **how)
        exc = info.value
        assert type(exc) is NotPositiveDefiniteError
        assert exc.tile_index == (k, k)
        if wrapped:
            assert type(exc.__cause__) is RuntimeSystemError
            exc = exc.__cause__.__cause__
            assert type(exc) is NotPositiveDefiniteError
            assert exc.tile_index == (k, k)


def _add_back_edge(graph, dst, src):
    """Make ``dst`` wait for ``src`` — with ``src`` downstream of ``dst``
    the graph is cyclic and can never complete."""
    edge = Edge(src, dst, (0, 0), 0)
    graph.tasks[dst].deps.append(edge)
    graph.succs[src].append(edge)


class TestDeadlockRule:
    """Ready empty, nothing in flight, tasks left => SchedulingError —
    for every worker count, promptly."""

    @pytest.mark.parametrize("first_panel", [0, 1], ids=["at-start", "mid-run"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_unsatisfiable_graph_raises(self, small_tlr, n_workers, first_panel):
        m = small_tlr.copy()
        graph = copy.deepcopy(_graph_for(m))  # the built graph is shared
        _add_back_edge(
            graph,
            (TaskKind.POTRF, first_panel),
            (TaskKind.POTRF, m.ntiles - 1),
        )
        outcome = []

        def run():
            try:
                execute_graph_parallel(graph, m, n_workers=n_workers)
            except BaseException as exc:  # noqa: BLE001 - recorded below
                outcome.append(exc)

        # pytest-timeout is not installed: bound the run with a joined
        # helper thread instead (daemon, so a hang cannot wedge the suite).
        helper = threading.Thread(target=run, daemon=True)
        helper.start()
        helper.join(timeout=1.0)
        assert not helper.is_alive(), "executor hung on an unsatisfiable graph"
        assert len(outcome) == 1 and type(outcome[0]) is SchedulingError
        assert "deadlocked" in str(outcome[0])


class TestSharedDataflow:
    """The countdown, successor lists, sort keys and graph check are
    derived once per graph and shared by every run of it."""

    def test_derived_once_and_never_copied(self, small_tlr):
        graph = _graph_for(small_tlr)
        flow = graph.dataflow()
        assert graph.dataflow() is flow
        twin = copy.deepcopy(graph)
        assert twin.dataflow() is not flow
        assert twin.dataflow().indeg == flow.indeg
        twin.add_task(
            dataclasses.replace(
                twin.tasks[(TaskKind.POTRF, 0)], tid=("extra",), deps=[]
            )
        )
        assert ("extra",) in twin.dataflow().indeg

    def test_concurrent_runs_of_one_graph(self, small_tlr):
        """Two runs of two workers each share one graph at once, on a
        short switch interval: each is bitwise the reference factor."""
        ref = small_tlr.copy()
        reference_cholesky(ref)
        graph = _graph_for(small_tlr)
        mats = [small_tlr.copy() for _ in range(2)]
        errors = []

        def run(m):
            try:
                execute_graph_parallel(graph, m, n_workers=2)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(m,)) for m in mats]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        for m in mats:
            _assert_factors_bitwise(m, ref)


class TestNumericalEquivalence:
    @pytest.mark.parametrize("band", [1, 2, 4])
    def test_matches_reference(self, small_problem, small_dense, rule8, band):
        ref = BandTLRMatrix.from_problem(small_problem, rule8, band_size=band)
        via_graph = ref.copy()
        reference_cholesky(ref)
        execute_graph_parallel(_graph_for(via_graph), via_graph, n_workers=1)
        _assert_factors_bitwise(via_graph, ref)

    def test_backward_error(self, small_problem, small_dense, rule8):
        m = BandTLRMatrix.from_problem(small_problem, rule8, band_size=2)
        execute_graph_parallel(_graph_for(m), m, n_workers=1)
        l = m.to_dense(lower_only=True)
        err = np.linalg.norm(l @ l.T - small_dense) / np.linalg.norm(small_dense)
        assert err < 1e-6


@pytest.mark.parametrize("n_workers", [1, 2])
class TestGuards:
    def test_band_mismatch_rejected(self, small_tlr, n_workers):
        g = build_cholesky_graph(small_tlr.ntiles, 3, 64, lambda i, j: 8)
        with pytest.raises(RuntimeSystemError):
            execute_graph_parallel(g, small_tlr, n_workers=n_workers)

    def test_nt_mismatch_rejected(self, small_tlr, n_workers):
        g = build_cholesky_graph(4, 1, 64, lambda i, j: 8)
        with pytest.raises(RuntimeSystemError):
            execute_graph_parallel(g, small_tlr, n_workers=n_workers)

    def test_expanded_graph_rejected(self, small_tlr, n_workers):
        g = build_cholesky_graph(
            small_tlr.ntiles, 1, 64, lambda i, j: 8, recursive_split=2
        )
        with pytest.raises(RuntimeSystemError, match="expanded"):
            execute_graph_parallel(g, small_tlr, n_workers=n_workers)


class TestReporting:
    def test_task_count(self, small_tlr):
        g = _graph_for(small_tlr)
        rep = execute_graph_parallel(g, small_tlr, n_workers=1)
        assert rep.tasks_executed == g.n_tasks

    def test_flops_recorded(self, small_tlr):
        rep = execute_graph_parallel(
            _graph_for(small_tlr), small_tlr, n_workers=1
        )
        assert rep.counter.total > 0

    def test_pool_active_by_default(self, small_tlr):
        rep = execute_graph_parallel(
            _graph_for(small_tlr), small_tlr, n_workers=1
        )
        assert rep.pool.stats.allocations + rep.pool.stats.reuses > 0

    def test_pool_disabled(self, small_tlr):
        rep = execute_graph_parallel(
            _graph_for(small_tlr), small_tlr, n_workers=1, use_pool=False
        )
        assert rep.pool.stats.allocations == 0

    def test_memory_tracker_seeded(self, small_tlr):
        initial = small_tlr.memory_elements()
        rep = execute_graph_parallel(
            _graph_for(small_tlr), small_tlr, n_workers=1
        )
        assert rep.tracker.peak_elements >= initial

    def test_max_rank_seen(self, small_tlr):
        rep = execute_graph_parallel(
            _graph_for(small_tlr), small_tlr, n_workers=1
        )
        assert rep.max_rank_seen > 0
