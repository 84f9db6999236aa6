"""A cold build: ``TLRSolver`` and the service tune, assemble deferred, and
factorize on the execution core.

The claims under test:

* the factor of a ``TLRSolver`` is bitwise the same on the reference loops
  and on the core at 1, 2 and 3 workers, tuned or at a forced band;
* its band is the one :func:`autotune_matrix` picks (Algorithm 1's walk
  is shared), and its backward error tracks ε on a ragged last tile;
* no off-band tile is compressed twice in a tuned build: the walk's tiles
  are reused and every other one is born once, in its fused update;
* ``factorize()`` runs at ``default_workers()``, a service session at
  that count divided by the shards, and concurrent shard misses build
  the factors lone builds do;
* the branches that realize first (processes, checkpoint/resume) are the
  loops on the realized matrix.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro import TLRSolver, TruncationRule
from repro.core import autotune_matrix, tlr_cholesky
from repro.core import api as api_module
from repro.linalg.backends import CompressionBackend
from repro.linalg.tiles import LowRankTile, PendingTile
from repro.matrix import BandTLRMatrix
from repro.statistics import CovarianceProblem
from repro.runtime import CheckpointConfig
from repro.runtime.task import TaskKind
from repro.service import FactorRecipe, ServiceConfig, SolverService
from repro.service import cache as cache_module
from repro.service import server as server_module
from repro.testing import reference_cholesky

from .test_autotuner import GEOMETRIES, _assert_bitwise_equal, _problem
from .test_checkpoint import _KillAt
from .test_fused_update import backward_error


def _solver(geometry, band_size="auto", **kw):
    n, tile, eps, _ = GEOMETRIES[geometry]
    return TLRSolver.from_problem(
        _problem(n, tile), accuracy=eps, band_size=band_size, **kw
    )


def _twin(solver):
    """An unfactorized solver over a copy of ``solver``'s matrix."""
    return TLRSolver(
        matrix=solver.matrix.copy(), problem=solver.problem,
        decision=solver.decision,
    )


@pytest.fixture(scope="module", params=["auto", 2], ids="band{}".format)
def built(request):
    """A tuned (band 3) and a forced-band build of the base geometry, and
    the reference loops' factor of each."""
    solver = _solver("base", request.param)
    loops = solver.matrix.copy()
    reference_cholesky(loops)
    return solver, loops


class TestOneFactor:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_loops_and_core_agree_bitwise(self, built, n_workers):
        solver, loops = built
        twin = _twin(solver)
        twin.factorize(n_workers=n_workers)
        _assert_bitwise_equal(twin.matrix, loops)

    def test_the_build_defers_and_has_both_formats(self, built):
        solver, loops = built
        assert any(isinstance(t, PendingTile) for t in solver.matrix.tiles.values())
        assert any(isinstance(t, LowRankTile) for t in loops.tiles.values())
        born_dense = [
            ij for ij, t in solver.matrix.tiles.items()
            if isinstance(t, PendingTile) and loops.is_dense(*ij)
        ]
        assert born_dense  # the base geometry births some tiles dense

    @pytest.mark.parametrize(
        "geometry",
        sorted(g for g, spec in GEOMETRIES.items() if spec[3] is None),
    )
    @pytest.mark.parametrize("fluctuation", [0.5, 0.67, 1.0])
    def test_band_is_autotune_matrix_band(self, geometry, fluctuation):
        n, tile, eps, _ = GEOMETRIES[geometry]
        _, want = autotune_matrix(
            _problem(n, tile), TruncationRule(eps=eps), fluctuation=fluctuation
        )
        got = _solver(geometry, fluctuation=fluctuation).decision
        assert got.band_size == want.band_size
        assert got.band_size_range == want.band_size_range
        # the walk read the band's sub-diagonals and the one that ends it
        band = want.band_size
        assert got.costs[:band] == want.costs[:band]

    @pytest.mark.parametrize("eps", [1e-4, 1e-8])
    def test_backward_error_on_a_ragged_last_tile(self, eps):
        n, tile, _, _ = GEOMETRIES["ragged_last_tile"]
        problem = _problem(n, tile)
        assert n % tile
        solver = TLRSolver.from_problem(problem, accuracy=eps)
        solver.factorize()
        assert backward_error(solver.matrix, problem.dense()) <= 10 * eps


def test_no_off_band_tile_is_compressed_twice(monkeypatch):
    """The walk's compressions are reused, the rest are born once.

    A tile is compressed where it is born: by the walk (reused as it is),
    at assembly (column 0) or after its fused update (a pending tile).
    Only the walk's tiles are low-rank before their update, so only they
    are ever rounded; no tile is compressed at assembly and then again.
    """
    births, rounded, walked = [], [], {}
    inside_born, generated = threading.local(), threading.local()
    walk_fn, compress_fn = api_module.walk_band_size, BandTLRMatrix._compress
    tile_fn = CovarianceProblem.tile
    born_fn = PendingTile.born
    round_fn = CompressionBackend.recompress_update

    def walk_spy(*args, **kw):
        decision, kept = walk_fn(*args, **kw)
        walked.update(kept)
        return decision, kept

    def tile_spy(self, i, j, **kw):
        # a tile is compressed right after its thread generates it
        generated.ij = (i, j)
        return tile_fn(self, i, j, **kw)

    def compress_spy(self, block, rank_hint=None):
        if not getattr(inside_born, "on", False):
            births.append(generated.ij)
        return compress_fn(self, block, rank_hint)

    def born_spy(self, final, compress):
        def counted(block):
            births.append((self.i, self.j))
            return compress(block)

        inside_born.on = True
        try:
            return born_fn(self, final, counted)
        finally:
            inside_born.on = False

    def round_spy(self, c, *args, **kw):
        if not isinstance(c, PendingTile):
            rounded.append(c)
        return round_fn(self, c, *args, **kw)

    monkeypatch.setattr(api_module, "walk_band_size", walk_spy)
    monkeypatch.setattr(CovarianceProblem, "tile", tile_spy)
    monkeypatch.setattr(BandTLRMatrix, "_compress", compress_spy)
    monkeypatch.setattr(PendingTile, "born", born_spy)
    monkeypatch.setattr(CompressionBackend, "recompress_update", round_spy)
    solver = _solver("base")
    solver.factorize(n_workers=2)

    band = solver.band_size
    off_band = [ij for ij in births if ij[0] - ij[1] >= band]
    assert off_band and len(off_band) == len(set(off_band))
    assert set(walked) <= set(off_band)
    # the walk's discarded probes: inside the band it picked, each once
    in_band = [ij for ij in births if ij[0] - ij[1] < band]
    assert in_band and len(in_band) == len(set(in_band))
    # every rounding updates a tile the walk compressed before its update
    assert rounded
    assert all(any(c is t for t in walked.values()) for c in rounded)


# ---------------------------------------------------------------------------
# worker counts
# ---------------------------------------------------------------------------
def _record_workers(monkeypatch):
    seen = []

    def spy(matrix, **kw):
        seen.append((kw.get("n_workers"), kw.get("executor")))
        return tlr_cholesky(matrix, **kw)

    monkeypatch.setattr(api_module, "tlr_cholesky", spy)
    return seen


class TestWorkerCounts:
    def test_factorize_defaults_to_default_workers(self, monkeypatch):
        seen = _record_workers(monkeypatch)
        monkeypatch.setattr(api_module, "default_workers", lambda: 3)
        _solver("one_tile", 1).factorize()
        _solver("one_tile", 1).factorize(n_workers=1)
        _solver("one_tile", 1).factorize(executor="threads")
        assert seen == [(3, None), (1, None), (None, "threads")]

    def test_recipe_outside_a_service_builds_at_default_workers(
        self, monkeypatch
    ):
        seen = _record_workers(monkeypatch)
        monkeypatch.setattr(cache_module, "default_workers", lambda: 3)
        n, tile, eps, _ = GEOMETRIES["one_tile"]
        FactorRecipe(problem=_problem(n, tile), accuracy=eps).build()
        assert seen == [(3, None)]

    @pytest.mark.parametrize("shards, workers", [(1, 2), (2, 1), (3, 1)])
    def test_shards_divide_the_default_workers(self, monkeypatch, shards, workers):
        # a 2-core host with BLAS pinned to one thread
        monkeypatch.setattr(server_module, "default_workers", lambda: 2)
        n, tile, eps, _ = GEOMETRIES["one_tile"]
        svc = SolverService(ServiceConfig(n_workers=shards))
        problem = _problem(n, tile)
        assert svc.session(problem, accuracy=eps).recipe.n_workers == workers
        forced = svc.session(problem, accuracy=eps, n_workers=3)
        assert forced.recipe.n_workers == 3

    def test_two_shards_missing_at_once_build_the_lone_factors(
        self, monkeypatch
    ):
        monkeypatch.setattr(server_module, "default_workers", lambda: 2)
        n, tile, _, _ = GEOMETRIES["base"]
        base = _problem(n, tile)
        with SolverService(ServiceConfig(n_workers=2)) as svc:
            sessions, shards = [], set()
            for variance in np.linspace(1.0, 2.0, 16):
                params = replace(base.params, variance=float(variance))
                problem = replace(base, params=params)
                session = svc.session(problem, accuracy=1e-4)
                shard = svc._shard_of(session.key)
                if shard not in shards:
                    shards.add(shard)
                    sessions.append(session)
                if len(sessions) == 2:
                    break
            assert len(sessions) == 2 and {s.recipe.n_workers for s in sessions} == {1}
            rhs = np.ones(n)
            tickets = [s.submit(rhs) for s in sessions]
            for ticket in tickets:
                ticket.result(timeout=120)
            served = [svc.cache.get(s.key).matrix for s in sessions]
        for session, matrix in zip(sessions, served):
            lone, _ = FactorRecipe(
                problem=session.recipe.problem, accuracy=1e-4
            ).build()
            _assert_bitwise_equal(matrix, lone)


# ---------------------------------------------------------------------------
# the branches that realize first
# ---------------------------------------------------------------------------
class TestRealizingBranches:
    def _realized_loops(self, solver):
        realized = solver.matrix.copy().realize()
        reference_cholesky(realized)
        return realized

    def test_processes_match_the_realized_loops(self):
        solver = _solver("base")
        want = self._realized_loops(solver)
        solver.factorize(executor="processes", n_ranks=2)
        _assert_bitwise_equal(solver.matrix, want)

    def test_checkpoint_and_resume_match_the_realized_loops(self, tmp_path):
        solver = _solver("base")
        want = self._realized_loops(solver)
        ckpt = CheckpointConfig(tmp_path, every=2)
        killed = _twin(solver)
        with pytest.raises(KeyboardInterrupt):
            killed.factorize(
                faults=_KillAt((TaskKind.POTRF, 5)), checkpoint=ckpt
            )
        resumed = _twin(solver)
        report = resumed.factorize(checkpoint=ckpt, resume=True)
        assert report.tasks_resumed > 0
        _assert_bitwise_equal(resumed.matrix, want)
