"""Checkpoint/restart: atomic save/load, validation, kill-and-resume."""

import json

import numpy as np
import pytest

from repro.core import tlr_cholesky
from repro.matrix import BandTLRMatrix
from repro.runtime import (
    CheckpointConfig,
    Checkpointer,
    graph_for_matrix,
    execute_graph,
    execute_graph_parallel,
)
from repro.runtime.resilience import as_checkpointer, str_to_tid, tid_to_str
from repro.runtime.task import TaskKind
from repro.utils import CheckpointError, ConfigurationError


def _graph_for(matrix):
    return graph_for_matrix(matrix)


@pytest.fixture(scope="module")
def base_matrix(small_problem, rule8):
    return BandTLRMatrix.from_problem(small_problem, rule8, band_size=1)


@pytest.fixture(scope="module")
def baseline_factor(base_matrix):
    m = base_matrix.copy()
    execute_graph(_graph_for(m), m)
    return m.to_dense(lower_only=True)


class _KillAt:
    """Duck-typed injector: raise KeyboardInterrupt at one task's dispatch."""

    def __init__(self, tid):
        self.tid = tid
        self.fired = False

    def pre_dispatch(self, tid, attempt, cancel_event=None):
        if tid == self.tid and not self.fired:
            self.fired = True
            raise KeyboardInterrupt

    def corrupt_output(self, tid, attempt, tile):
        return False


class TestTidSerialization:
    @pytest.mark.parametrize(
        "tid",
        [
            (TaskKind.POTRF, 0),
            (TaskKind.TRSM, 5, 2),
            (TaskKind.GEMM, 3, 2, 1),
        ],
    )
    def test_round_trip(self, tid):
        assert str_to_tid(tid_to_str(tid)) == tid

    @pytest.mark.parametrize("bad", ["LU:1:0", "GEMM:a:b:c", "GEMM"])
    def test_malformed_raises(self, bad):
        with pytest.raises(CheckpointError):
            str_to_tid(bad)


class TestSaveLoad:
    def test_round_trip_equality(self, base_matrix, tmp_path):
        m = base_matrix.copy()
        completed = {(TaskKind.POTRF, 0), (TaskKind.TRSM, 1, 0)}
        ck = Checkpointer(CheckpointConfig(directory=tmp_path))
        manifest = ck.save(m, completed, panels_done=1)
        assert manifest.exists()

        state = Checkpointer(CheckpointConfig(directory=tmp_path)).load_latest()
        assert state is not None
        assert state.completed == completed
        assert state.panels_done == 1
        assert state.seq == 1
        np.testing.assert_array_equal(
            state.matrix.to_dense(), m.to_dense()
        )

    def test_load_from_empty_dir(self, tmp_path):
        ck = Checkpointer(CheckpointConfig(directory=tmp_path / "nope"))
        assert ck.load_latest() is None

    def test_prune_keeps_newest(self, base_matrix, tmp_path):
        m = base_matrix.copy()
        ck = Checkpointer(CheckpointConfig(directory=tmp_path, keep=2))
        for i in range(4):
            ck.save(m, {(TaskKind.POTRF, 0)}, panels_done=i + 1)
        manifests = sorted(p.name for p in tmp_path.glob("ckpt-*.json"))
        assert manifests == ["ckpt-3.json", "ckpt-4.json"]
        state = ck.load_latest()
        assert state.seq == 4 and state.panels_done == 4

    def test_version_mismatch_raises(self, base_matrix, tmp_path):
        ck = Checkpointer(CheckpointConfig(directory=tmp_path))
        manifest = ck.save(base_matrix.copy(), set(), panels_done=0)
        meta = json.loads(manifest.read_text())
        meta["version"] = 99
        manifest.write_text(json.dumps(meta))
        with pytest.raises(CheckpointError):
            ck.load_latest()

    def test_missing_archive_raises(self, base_matrix, tmp_path):
        ck = Checkpointer(CheckpointConfig(directory=tmp_path))
        ck.save(base_matrix.copy(), set(), panels_done=0)
        (tmp_path / "ckpt-1.npz").unlink()
        with pytest.raises(CheckpointError):
            ck.load_latest()

    def test_bad_every_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            Checkpointer(CheckpointConfig(directory=tmp_path, every=0))

    def test_as_checkpointer_coercions(self, tmp_path):
        assert as_checkpointer(None) is None
        ck = as_checkpointer(str(tmp_path))
        assert isinstance(ck, Checkpointer)
        assert as_checkpointer(ck) is ck
        cfg = CheckpointConfig(directory=tmp_path, every=3)
        assert as_checkpointer(cfg).config.every == 3

    def test_validate_against_geometry(self, base_matrix, rule8, tmp_path):
        m = base_matrix.copy()
        ck = Checkpointer(CheckpointConfig(directory=tmp_path))
        ck.save(m, set(), panels_done=0)
        state = ck.load_latest()
        other = BandTLRMatrix.from_dense(
            np.eye(128) * 4.0, 32, rule8, band_size=1
        )
        with pytest.raises(CheckpointError):
            ck.validate_against(_graph_for(other), other, state)

    def test_validate_against_unknown_tasks(self, base_matrix, tmp_path):
        m = base_matrix.copy()
        ck = Checkpointer(CheckpointConfig(directory=tmp_path))
        ck.save(m, {(TaskKind.POTRF, 99)}, panels_done=0)
        state = ck.load_latest()
        with pytest.raises(CheckpointError):
            ck.validate_against(_graph_for(m), m, state)


class TestKillAndResume:
    @pytest.mark.parallel
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_kill_and_resume(
        self, base_matrix, baseline_factor, tmp_path, n_workers
    ):
        killed = base_matrix.copy()
        with pytest.raises(KeyboardInterrupt):
            execute_graph_parallel(
                _graph_for(killed), killed, n_workers=n_workers,
                faults=_KillAt((TaskKind.POTRF, 5)),
                checkpoint=tmp_path,
            )
        assert list(tmp_path.glob("ckpt-*.json"))  # progress survived

        resumed = base_matrix.copy()
        rep = execute_graph_parallel(
            _graph_for(resumed), resumed, n_workers=n_workers,
            checkpoint=tmp_path, resume=True,
        )
        assert rep.tasks_resumed > 0
        assert rep.tasks_executed > 0
        assert rep.tasks_resumed + rep.tasks_executed == len(
            _graph_for(resumed).tasks
        )
        assert np.array_equal(
            resumed.to_dense(lower_only=True), baseline_factor
        )

    def test_resume_of_finished_run_is_noop(
        self, base_matrix, baseline_factor, tmp_path
    ):
        m = base_matrix.copy()
        execute_graph(_graph_for(m), m, checkpoint=tmp_path)
        m2 = base_matrix.copy()
        rep = execute_graph(
            _graph_for(m2), m2, checkpoint=tmp_path, resume=True
        )
        assert rep.tasks_executed == 0
        assert rep.tasks_resumed == len(_graph_for(m2).tasks)
        assert np.array_equal(m2.to_dense(lower_only=True), baseline_factor)

    def test_resume_without_prior_checkpoint_runs_fresh(
        self, base_matrix, baseline_factor, tmp_path
    ):
        m = base_matrix.copy()
        rep = execute_graph(
            _graph_for(m), m, checkpoint=tmp_path / "fresh", resume=True
        )
        assert rep.tasks_resumed == 0
        assert np.array_equal(m.to_dense(lower_only=True), baseline_factor)


class TestFactorizeRouting:
    def test_resume_requires_checkpoint(self, base_matrix):
        with pytest.raises(ConfigurationError):
            tlr_cholesky(base_matrix.copy(), resume=True)

    def test_checkpoint_via_solver_api(self, small_problem, tmp_path):
        from repro.core.api import TLRSolver

        solver = TLRSolver.from_problem(small_problem, 1e-8, band_size=1)
        rep = solver.factorize(checkpoint=tmp_path)
        assert rep.resilience.checkpoints_written > 0
        solver2 = TLRSolver.from_problem(small_problem, 1e-8, band_size=1)
        rep2 = solver2.factorize(checkpoint=tmp_path, resume=True)
        assert rep2.tasks_resumed > 0


class TestCheckpointCLI:
    def test_demo_checkpoint_then_resume(self, capsys, tmp_path):
        args = ["demo", "--n", "256", "--tile", "64", "--accuracy", "1e-6",
                "--checkpoint", str(tmp_path)]
        assert main_demo(args) == 0
        out = capsys.readouterr().out
        assert "checkpoints=" in out

        assert main_demo(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed=" in out


def main_demo(args):
    from repro.__main__ import main

    return main(args)
