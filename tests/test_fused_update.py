"""Accumulate-then-round: the invariants of the fused low-rank update.

``tlr_cholesky`` updates a low-rank tile left-looking — every panel
product at once, **one** rounding — so its factor is no longer bitwise
the right-looking one.  What replaces that promise, and is tested here:

(a) determinism: the reference loops, the execution core at any worker
    count and the process executor produce the same bits, fresh or
    resumed from a checkpoint, at both precisions the ε rule picks (fp32
    off-band tiles at ε = 1e-4, fp64 at 1e-8) and for every backend;
(b) accuracy against the dense ``scipy`` factor, and against the
    *per-update oracle* — the paper's right-looking graph (the default
    of ``build_cholesky_graph``) executed through the same kernel, one
    operand pair per task;
(c) a fused task with one pair *is* the per-update kernel, bitwise;
(d) the representation rule of ``recompress_update`` and its edges;
(e) per-tile formats decided where tiles are born (``defer=`` a map):
    under any dense/low-rank map — none, every off-band tile, or one
    where both panel operands of a low-rank tile are dense — the loops,
    the core and fault rollback agree bitwise, the branches that realize
    first are the eager call on the same map, the backward error tracks ε,
    and the empty map is the compress-everything factor;
(f) realized communication equals simulated communication on the fused
    graph (``tune verify``'s tolerance gate runs on it in
    ``tests/test_tune.py``);
(g) a deferred assembly (``from_problem(defer=True)``, an MLE step's
    first): pending tiles are generated and compressed once, by the
    fused update, and kept dense where ``keep_dense`` says so —
    ``realize()`` is the eager matrix with those tiles dense, the loops
    are the core at any worker count, and the branches that realize
    first are the eager call.
"""

import shutil

import numpy as np
import pytest
import scipy.linalg as sla

from repro import TruncationRule, st_3d_exp_problem
from repro.core import (
    forward_solve,
    log_likelihood,
    solve_spd,
    tlr_cholesky,
    tlr_matvec,
)
from repro.distribution import default_distribution
from repro.linalg import (
    DenseTile,
    KernelClass,
    LowRankTile,
    PendingTile,
    RandomizedSVDBackend,
    SVDBackend,
    gemm_auto,
    gemm_lr,
    keep_dense,
)
from repro.linalg.batched import BatchItem, run_batch
from repro.linalg.flops import (
    flops_gemm_lr_dense_general,
    flops_gemm_lr_fused,
    flops_gemm_lr_general,
)
from repro.matrix import BandTLRMatrix, footprint_report, save_matrix
from repro.runtime import (
    CheckpointConfig,
    MachineSpec,
    RecoveryPolicy,
    build_cholesky_graph,
    classify_dataflow,
    execute_graph,
    execute_graph_distributed,
    execute_graph_parallel,
    get_executor,
    graph_for_matrix,
    simulate,
)
from repro.runtime.task import TaskKind
from repro.statistics.problem import CovarianceProblem
from repro.utils import (
    ConfigurationError,
    KernelError,
    NotPositiveDefiniteError,
)

from .test_executor import (
    _assert_factors_bitwise as assert_bitwise,
    _assert_pool_consistent,
    _KillAt,
)


def oracle_graph_for(matrix):
    """The paper's right-looking PTG: one rounding per (tile, panel)."""
    grid = matrix.rank_grid()
    return build_cholesky_graph(
        matrix.ntiles,
        matrix.band_size,
        matrix.desc.tile_size,
        lambda i, j: int(max(grid[i, j], 1)),
    )


def backward_error(factor, dense):
    l = factor.to_dense(lower_only=True)
    return np.linalg.norm(l @ l.T - dense) / np.linalg.norm(dense)


def assert_no_inverse(factor):
    """``L_kk⁻¹`` lives from a panel's POTRF to its last TRSM: a finished
    factorization holds none, however it ran."""
    for k in range(factor.ntiles):
        assert factor.tile(k, k).inverse is None, k


#: An ε at which the rule picks each precision for off-band tiles.
EPS_FOR = {None: 1e-8, "fp64": 1e-8, "adaptive": 1e-4}


def lowrank(rng, m, n, k, dtype=np.float64):
    return LowRankTile(
        rng.standard_normal((m, k)).astype(dtype),
        rng.standard_normal((n, k)).astype(dtype),
    )


# ----------------------------------------------------------------------
# (a) one factor, however it is computed
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def problem():
    return st_3d_exp_problem(800, 100, seed=3)


@pytest.fixture(
    scope="module",
    params=[
        (precision, backend)
        for precision in ("fp64", "adaptive")
        for backend in ("svd", "rsvd")
    ],
    ids="{0[0]}-{0[1]}".format,
)
def case(request, problem, tmp_path_factory):
    """Base matrix, the loops' factor and report, a mid-run checkpoint."""
    precision, backend = request.param
    base = BandTLRMatrix.from_problem(
        problem, TruncationRule(eps=EPS_FOR[precision]), 2, backend=backend
    )
    ref = base.copy()
    ref_report = tlr_cholesky(ref)
    assert_no_inverse(ref)
    lowrank_tiles = [
        t for t in ref.tiles.values() if isinstance(t, LowRankTile)
    ]
    want = np.float32 if precision == "adaptive" else np.float64
    assert {t.dtype for t in lowrank_tiles} == {np.dtype(want)}
    # killed half way at one worker: the checkpoint every resumed run,
    # on threads and on ranks, restarts from
    ckpt = tmp_path_factory.mktemp("ckpt")
    started = base.copy()
    with pytest.raises(KeyboardInterrupt):
        execute_graph(
            graph_for_matrix(started), started,
            faults=_KillAt((TaskKind.POTRF, base.ntiles // 2)),
            checkpoint=CheckpointConfig(directory=ckpt, every=2),
        )
    assert list(ckpt.glob("ckpt-*.json"))
    return base, ref, ref_report, ckpt


@pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
@pytest.mark.parametrize(
    "how", [1, 2, 3, "processes"], ids="workers{}".format
)
def test_one_factor_however_computed(case, tmp_path, how, resumed):
    base, ref, ref_report, ckpt = case
    m = base.copy()
    graph = graph_for_matrix(m)
    kwargs = {}
    if resumed:
        shutil.copytree(ckpt, tmp_path / "ckpt")
        kwargs = {
            "checkpoint": CheckpointConfig(
                directory=tmp_path / "ckpt", every=base.ntiles
            ),
            "resume": True,
        }
    if how == "processes":
        report = get_executor("processes", n_ranks=2).execute(
            graph, m, **kwargs
        ).report
    else:
        report = execute_graph_parallel(graph, m, n_workers=how, **kwargs)
        _assert_pool_consistent(report, m)
        # (rank processes ship their tiles pickled, without the inverse:
        # test_each_rank_drops_the_inverses_it_held looks at the ranks')
        assert_no_inverse(m)
    assert_bitwise(m, ref)
    if resumed:
        assert 0 < report.tasks_resumed < graph.n_tasks
        assert report.tasks_executed == graph.n_tasks - report.tasks_resumed
    else:
        assert report.counter.per_class == ref_report.counter.per_class
        assert (
            report.counter.per_class_count
            == ref_report.counter.per_class_count
        )
        assert report.max_rank_seen == ref_report.max_rank_seen
        assert report.rank_growth_events == ref_report.rank_growth_events


class _FactorsAnotherMatrixThenNPD:
    """Duck-typed injector: POTRF ``k``'s first attempt factors 4·A_kk
    (its inverse is then the wrong one) and reports the tile not positive
    definite, so the engine rolls the tile back, shifts it by 0 and
    retries."""

    def __init__(self, matrix, k):
        self.matrix, self.tid = matrix, (TaskKind.POTRF, k)
        self.fired = False  # an NPD retry does not count as an attempt

    def pre_dispatch(self, tid, attempt, cancel_event=None):
        if tid == self.tid and not self.fired:
            self.matrix.tile(tid[1], tid[1]).data *= 4.0

    def corrupt_output(self, tid, attempt, tile):
        if tid == self.tid and not self.fired:
            self.fired = True
            raise NotPositiveDefiniteError("injected", (tid[1], tid[1]))
        return False


def test_retried_potrf_refreshes_its_inverse(problem):
    """All dense, so every TRSM multiplies by the inverse: a POTRF retried
    under an NPD shift (of 0) is the fault-free factor bit for bit, at
    one worker and at two."""
    base = BandTLRMatrix.from_problem(problem, TruncationRule(eps=1e-8), 8)
    ref = base.copy()
    tlr_cholesky(ref)
    for n_workers in (1, 2):
        m = base.copy()
        report = tlr_cholesky(
            m, n_workers=n_workers,
            faults=_FactorsAnotherMatrixThenNPD(m, 3),
            recovery=RecoveryPolicy(diagonal_shift=0.0, backoff_s=0.0),
        )
        assert report.resilience.npd_shifts == 1
        assert_bitwise(m, ref)
        assert_no_inverse(m)


@pytest.mark.parametrize("ranks", [2, 4])
@pytest.mark.parametrize("band", [2, 8], ids=["band2", "dense"])
def test_each_rank_drops_the_inverses_it_held(problem, band, ranks):
    """Rank processes ship their tiles pickled, which drops the inverse
    whatever the rank did.  Ranks run on threads (``_inline``) hand the
    controller their own tile objects, and pass received tiles on as the
    same objects, so a rank that kept an inverse shows here."""
    base = BandTLRMatrix.from_problem(problem, TruncationRule(eps=1e-8), band)
    ref = base.copy()
    tlr_cholesky(ref)
    m = base.copy()
    execute_graph_distributed(
        graph_for_matrix(m), m, n_ranks=ranks, _inline=True
    )
    assert_bitwise(m, ref)
    assert_no_inverse(m)


def test_one_rounding_per_updated_tile(case):
    """The count the whole change is about: NT=8 at band 2 has 21
    low-rank tiles, 15 of them below the first block column."""
    _, _, ref_report, _ = case
    counts = ref_report.counter.per_class_count
    assert (
        counts[KernelClass.GEMM_LR] + counts[KernelClass.GEMM_LR_DENSE] == 15
    )


def test_default_backend_at_the_size_it_samples(monkeypatch):
    """b = 200, ε = 1e-4, band 2, no backend named: assembly and the wide
    roundings take the sampler, and (a) and (b) hold as they do for the
    exact oracle — one factor from loops, two workers and two ranks;
    backward error within 10·ε; ranks within max(2, 5 %) of ``svd``'s."""
    eps = 1e-4
    big = st_3d_exp_problem(1200, 200, seed=3)
    dense = big.dense()
    sampled = []
    ara = RandomizedSVDBackend._compress_ara

    def counting(self, a, rule, seed, rank_hint):
        sampled.append(rank_hint)
        return ara(self, a, rule, seed, rank_hint)

    monkeypatch.setattr(RandomizedSVDBackend, "_compress_ara", counting)
    base = BandTLRMatrix.from_problem(big, TruncationRule(eps=eps), 2)
    assembled = len(sampled)
    assert assembled == 10  # every off-band tile of NT = 6 at band 2
    ref = base.copy()
    tlr_cholesky(ref)
    assert any(hint is not None for hint in sampled[assembled:])

    threads, ranks = base.copy(), base.copy()
    execute_graph_parallel(graph_for_matrix(threads), threads, n_workers=2)
    get_executor("processes", n_ranks=2).execute(graph_for_matrix(ranks), ranks)
    assert_bitwise(threads, ref)
    assert_bitwise(ranks, ref)

    oracle = BandTLRMatrix.from_problem(
        big, TruncationRule(eps=eps), 2, backend="svd"
    )
    tlr_cholesky(oracle)
    assert backward_error(ref, dense) <= 10 * eps
    for ij, t in ref.tiles.items():
        if isinstance(t, LowRankTile):
            k = oracle.tile(*ij).rank
            assert t.rank <= k + max(2, 0.05 * k), ij


# ----------------------------------------------------------------------
# (b) the dense oracle and the per-update oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-8])
def test_accuracy_against_both_oracles(eps):
    problem = st_3d_exp_problem(1500, 125, seed=7)
    dense = problem.dense()
    base = BandTLRMatrix.from_problem(problem, TruncationRule(eps=eps), 2)

    fused = base.copy()
    tlr_cholesky(fused)
    oracle = base.copy()
    execute_graph(oracle_graph_for(oracle), oracle)

    # the dense LAPACK factor, tile by tile
    chol = sla.cholesky(dense, lower=True)
    l = fused.to_dense(lower_only=True)
    assert np.linalg.norm(l - chol) <= 100 * eps * np.linalg.norm(chol)

    err = backward_error(fused, dense)
    assert err <= 10 * eps
    assert err <= 1.5 * backward_error(oracle, dense)
    for ij, t in fused.tiles.items():
        if isinstance(t, LowRankTile):
            k = oracle.tile(*ij).rank
            assert t.rank <= k + max(2, 0.05 * k), ij


# ----------------------------------------------------------------------
# (c) one pair is the per-update kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("b_dense", [False, True], ids=["lr-lr", "lr-dense"])
def test_single_pair_is_the_per_update_kernel(rng, b_dense):
    rule = TruncationRule(eps=1e-6)
    a = lowrank(rng, 80, 80, 5)
    b = DenseTile(rng.standard_normal((80, 80))) if b_dense else lowrank(
        rng, 80, 80, 7
    )
    c = lowrank(rng, 80, 80, 9)
    one, kind_one, res_one = gemm_auto(a, b, c, rule)
    many, kind_many, res_many = gemm_auto([a], [b], c, rule)
    assert kind_one is kind_many
    assert kind_one is (
        KernelClass.GEMM_LR_DENSE if b_dense else KernelClass.GEMM_LR
    )
    assert np.array_equal(one.u, many.u) and np.array_equal(one.v, many.v)
    assert res_one.rank_before == res_many.rank_before == 9 + 5


def test_fused_item_through_run_batch(rng):
    """A fused item run through ``run_batch`` is the kernel call the
    execution core makes — seeded by the destination's coordinates — and
    list operands with a dense destination are refused, not
    mis-dispatched."""
    rule = TruncationRule(eps=1e-6)
    a = [lowrank(rng, 80, 80, 30), lowrank(rng, 80, 80, 25)]
    b = [lowrank(rng, 80, 80, 28), DenseTile(rng.standard_normal((80, 80)))]
    c = lowrank(rng, 80, 80, 9)  # W = 9 + 28 + 25 >= 40: the seeded path
    item = BatchItem("ref", "gemm", (a, b, c), index=(5, 2))
    (res,) = run_batch([item], rule, backend="rsvd")
    want, _, _ = gemm_auto(a, b, c, rule, backend="rsvd", tile_index=(5, 2))
    assert np.array_equal(res.out.u, want.u)
    assert np.array_equal(res.out.v, want.v)
    dense_c = DenseTile(rng.standard_normal((80, 80)))
    with pytest.raises(KernelError):
        run_batch([BatchItem("ref", "gemm", (a, b, dense_c))], rule)


def test_per_update_graph_is_the_loops_where_tiles_have_one_panel():
    """At NT=3 the only updated low-rank tile, (2, 1), has one panel: the
    fused loops and the right-looking graph are the same computation."""
    small = st_3d_exp_problem(300, 100, seed=3)
    base = BandTLRMatrix.from_problem(small, TruncationRule(eps=1e-6), 1)
    loops, oracle = base.copy(), base.copy()
    tlr_cholesky(loops)
    execute_graph(oracle_graph_for(oracle), oracle)
    assert_bitwise(loops, oracle)


def test_fused_flop_model_reduces_to_the_single_update_models():
    b = 400
    assert flops_gemm_lr_fused(b, 20, [(8, 30)]) == flops_gemm_lr_general(
        b, 20, 8, 30
    )
    assert flops_gemm_lr_fused(
        b, 20, [(8, None)]
    ) == flops_gemm_lr_dense_general(b, 20, 8)
    # past b/2 the rounding is priced as a dense b x b SVD, not by width
    wide = flops_gemm_lr_fused(b, 150, [(40, 40), (40, None)])
    wider = flops_gemm_lr_fused(b, 190, [(40, 40), (40, None)])
    assert wider - wide == 2.0 * b * b * 40


# ----------------------------------------------------------------------
# (d) the representation rule
# ----------------------------------------------------------------------
class CountingSVD(SVDBackend):
    """Counts the wide roundings (the dense sums handed to ``compress``)."""

    def __init__(self):
        super().__init__()
        self.compressed = []

    def compress(self, a, rule, *, seed=None, rank_hint=None):
        self.compressed.append(a.shape)
        return super().compress(a, rule, seed=seed, rank_hint=rank_hint)


class TestWidthRule:
    RULE = TruncationRule(eps=1e-8)

    @pytest.mark.parametrize(
        "shape,width,wide",
        [
            ((64, 64), 31, False),   # W = b/2 - 1: stacked factors
            ((64, 64), 32, True),    # W = b/2: the dense sum
            ((100, 60), 29, False),  # ragged: the rule reads min(m, n)
            ((100, 60), 30, True),
            ((60, 100), 30, True),
        ],
    )
    def test_representation_switches_at_half_the_tile(
        self, rng, shape, width, wide
    ):
        m, n = shape
        backend = CountingSVD()
        c = lowrank(rng, m, n, 10)
        u = rng.standard_normal((m, width - 10))
        v = rng.standard_normal((n, width - 10))
        res = backend.recompress_update(c, u, v, self.RULE)
        assert backend.compressed == ([(m, n)] if wide else [])
        assert res.rank_before == width
        np.testing.assert_allclose(
            res.tile.to_dense(), c.to_dense() - u @ v.T, atol=1e-6
        )
        assert res.grew == (res.rank_after > 10)

    def test_both_routes_agree(self, rng):
        """One update rounded as stacked factors (W = 31) and, with a zero
        column appended to the destination, as the dense sum (W = 32)."""
        u = rng.standard_normal((64, 12))
        v = rng.standard_normal((64, 12))
        base = rng.standard_normal((64, 19))
        narrow = LowRankTile(base, base.copy())           # W = 31
        pad = np.zeros((64, 1))
        wide = LowRankTile(np.hstack([base, pad]), np.hstack([base, pad]))
        a = SVDBackend().recompress_update(narrow, u, v, self.RULE)
        b = SVDBackend().recompress_update(wide, u, v, self.RULE)
        assert a.rank_after == b.rank_after
        np.testing.assert_allclose(
            a.tile.to_dense(), b.tile.to_dense(), atol=1e-8
        )

    def test_rank_zero_operands_change_nothing(self, rng):
        c = lowrank(rng, 64, 64, 6)
        a, b = lowrank(rng, 64, 64, 4), lowrank(rng, 64, 64, 3)
        zero = LowRankTile.zero(64, 64)
        plain, _ = gemm_lr([a], [b], c, self.RULE)
        padded, res = gemm_lr([zero, a, zero], [b, b, zero], c, self.RULE)
        assert np.array_equal(plain.u, padded.u)
        assert np.array_equal(plain.v, padded.v)
        assert res.rank_before == 6 + 3
        same, res = gemm_lr([zero], [zero], c, self.RULE)
        np.testing.assert_allclose(same.to_dense(), c.to_dense(), atol=1e-8)
        assert not res.grew

    def test_rank_zero_destination(self, rng):
        a, b = lowrank(rng, 64, 64, 4), lowrank(rng, 64, 64, 4)
        out, res = gemm_lr(a, b, LowRankTile.zero(64, 64), self.RULE)
        np.testing.assert_allclose(
            out.to_dense(), -(a.to_dense() @ b.to_dense().T), atol=1e-6
        )
        assert res.grew and res.rank_after == 4
        nothing, res = gemm_lr(
            LowRankTile.zero(64, 64), b, LowRankTile.zero(64, 64), self.RULE
        )
        assert nothing.rank == 0 and res.rank_before == 0

    @pytest.mark.parametrize("width", [8, 40], ids=["stacked", "dense-sum"])
    def test_fp32_destination_stays_fp32(self, rng, width):
        rule = TruncationRule(eps=1e-3)
        c = lowrank(rng, 64, 64, 6, np.float32)
        a = [lowrank(rng, 64, 64, width - 6)]   # fp64 operands
        b = [DenseTile(rng.standard_normal((64, 64)))]
        out, res = gemm_lr(a, b, c, rule)
        assert out.dtype == np.float32
        want = c.to_dense() - a[0].to_dense() @ b[0].data.T
        assert np.linalg.norm(out.to_dense() - want) <= 1e-4 * np.linalg.norm(
            want
        )

    def test_update_is_formed_at_the_thinner_rank(self, rng):
        """k_A < k_B used to stack k_B columns; the width is min(k_A, k_B)."""
        c = lowrank(rng, 64, 64, 5)
        thin, thick = lowrank(rng, 64, 64, 3), lowrank(rng, 64, 64, 11)
        for a, b in ((thin, thick), (thick, thin)):
            out, res = gemm_lr(a, b, c, self.RULE)
            assert res.rank_before == 5 + 3
            np.testing.assert_allclose(
                out.to_dense(),
                c.to_dense() - a.to_dense() @ b.to_dense().T,
                atol=1e-6,
            )

    def test_mirror_operands_share_the_kernel(self, rng):
        """Dense A against low-rank B (an upper-triangular variant): the
        same product helper, recorded as (5)-GEMM."""
        c = lowrank(rng, 64, 64, 5)
        a, b = DenseTile(rng.standard_normal((64, 64))), lowrank(rng, 64, 64, 4)
        out, kind, res = gemm_auto(a, b, c, self.RULE)
        assert kind is KernelClass.GEMM_LR_DENSE
        assert res.rank_before == 5 + 4
        np.testing.assert_allclose(
            out.to_dense(), c.to_dense() - a.data @ b.to_dense().T, atol=1e-6
        )


# ----------------------------------------------------------------------
# (e) per-tile formats, decided where each tile is born
# ----------------------------------------------------------------------
MAPS = ["empty", "off-band", "random"]


def format_map(nt, kind):
    """A band-1 format map: nothing, every off-band tile, or a random
    third of them that includes the case a banded factorization never
    meets — both panel operands of the low-rank tile (2, 1) dense."""
    off = np.tril(np.ones((nt, nt), dtype=bool), -1)
    if kind == "empty":
        return np.zeros_like(off)
    if kind == "off-band":
        return off
    mask = off & (np.random.default_rng(0).random((nt, nt)) < 0.35)
    mask[1, 0] = mask[2, 0] = True
    mask[2, 1] = False
    return mask


def eager_on(problem, rule, mask, band=1, **kwargs):
    """The eager matrix with the tiles ``mask`` marks as generated blocks."""
    m = BandTLRMatrix.from_problem(problem, rule, band, **kwargs)
    for i, j in zip(*np.nonzero(mask)):
        if not m.is_dense(i, j):
            m.set_tile(int(i), int(j), DenseTile(problem.tile(i, j)))
    return m


def ruled(problem, rule, band=1, **kwargs):
    """What ``defer=True`` realizes: the eager matrix with the tiles whose
    compression ``keep_dense`` rejects as generated blocks."""
    eager = BandTLRMatrix.from_problem(problem, rule, band, **kwargs)
    return eager_on(problem, rule, eager.dense_map(), band, **kwargs)


class TestBornDense:
    RULE = TruncationRule(eps=1e-4)

    def build(self, problem, kind, rule=None):
        defer = True if kind == "rule" else format_map(problem.ntiles, kind)
        return BandTLRMatrix.from_problem(
            problem, rule or self.RULE, 1, defer=defer
        )

    @pytest.mark.parametrize("kind", MAPS + ["rule"])
    def test_loops_core_and_rollback_agree(self, problem, kind):
        ref = self.build(problem, kind)
        assert_bitwise(ref.copy().realize(), (
            ruled(problem, self.RULE) if kind == "rule"
            else eager_on(problem, self.RULE, format_map(problem.ntiles, kind))
        ))
        ref_report = tlr_cholesky(ref)
        # ε = 1e-4: low-rank tiles fp32, dense ones (born dense too) fp64
        for tile in ref.tiles.values():
            if isinstance(tile, LowRankTile):
                assert tile.dtype == np.float32
            else:
                assert tile.data.dtype == np.float64
        if kind != "rule":
            mask = format_map(problem.ntiles, kind)
            for (i, j), tile in ref.tiles.items():
                assert isinstance(tile, DenseTile) == (i == j or mask[i, j])
            # the pending tiles (columns >= 1) the map marks
            assert ref_report.tiles_densified_online == mask[:, 1:].sum()
        for n_workers in (1, 2, 3):
            m = self.build(problem, kind)
            report = tlr_cholesky(m, n_workers=n_workers)
            assert_bitwise(m, ref)
            assert report.counter.per_class == ref_report.counter.per_class
            assert report.max_rank_seen == ref_report.max_rank_seen
            assert (
                report.tiles_densified_online
                == ref_report.tiles_densified_online
            )
        chaotic = self.build(problem, kind)
        report = tlr_cholesky(chaotic, faults="nan:gemm:0.3")
        assert report.resilience.retries > 0
        assert_bitwise(chaotic, ref)

    @pytest.mark.parametrize("how", ["processes", "checkpoint"])
    @pytest.mark.parametrize("kind", MAPS)
    def test_realizing_branches_are_the_eager_call_on_the_map(
        self, problem, tmp_path, kind, how
    ):
        mask = format_map(problem.ntiles, kind)
        kwargs = {
            "processes": dict(executor="processes", n_ranks=2),
            "checkpoint": dict(
                checkpoint=CheckpointConfig(tmp_path / "d", every=8)
            ),
        }[how]
        eager = eager_on(problem, self.RULE, mask)
        tlr_cholesky(eager, **(
            dict(checkpoint=CheckpointConfig(tmp_path / "e", every=8))
            if how == "checkpoint" else kwargs
        ))
        deferred = self.build(problem, kind)
        tlr_cholesky(deferred, **kwargs)
        assert_bitwise(deferred, eager)
        if how == "checkpoint":  # the finished run, restored
            resumed = self.build(problem, kind)
            report = tlr_cholesky(resumed, resume=True, **kwargs)
            assert report.tasks_resumed > 0
            assert_bitwise(resumed, eager)

    @pytest.mark.parametrize("eps", [1e-4, 1e-8])
    @pytest.mark.parametrize("kind", MAPS + ["rule"])
    def test_backward_error_tracks_eps(self, problem, kind, eps):
        m = self.build(problem, kind, TruncationRule(eps=eps))
        tlr_cholesky(m)
        assert backward_error(m, problem.dense()) <= 10 * eps

    def test_empty_map_is_the_compress_everything_factor(
        self, problem, monkeypatch
    ):
        empty = self.build(problem, "empty")
        tlr_cholesky(empty)
        # every pending tile compressed, none kept dense: the deferred
        # factor before formats were decided per tile
        monkeypatch.setattr(
            PendingTile, "born",
            lambda self, final, compress: compress(final(self.dtype)),
        )
        everything = self.build(problem, "rule")
        tlr_cholesky(everything)
        assert_bitwise(empty, everything)

    def test_max_rank_does_not_count_dense_births(self, problem):
        dense = self.build(problem, "off-band", TruncationRule(eps=1e-8))
        report = tlr_cholesky(dense)
        assert report.tiles_densified_online == 21  # NT = 8, columns >= 1
        assert report.max_rank_seen == 0
        m = self.build(problem, "rule")
        report = tlr_cholesky(m)
        assert report.tiles_densified_online > 0
        ranks = [
            t.rank for (i, j), t in m.tiles.items()
            if j >= 1 and isinstance(t, LowRankTile)
        ]
        assert report.max_rank_seen == max(ranks)
        assert not keep_dense(report.max_rank_seen, (100, 100))

    def test_rule_is_a_third_of_the_tile(self):
        assert not keep_dense(33, (100, 100)) and keep_dense(34, (100, 100))
        assert keep_dense(17, (50, 100))  # a ragged tile reads min(m, n)
        assert keep_dense(100, (100, 100)) and not keep_dense(0, (1, 1))


class TestAdaptiveThreshold:
    """No map: the rule is applied to each pending tile after its one
    compression, at the fused update."""

    def test_growth_is_checked_after_the_rounding(self):
        problem = st_3d_exp_problem(1000, 125, seed=9, nugget=1e-3)
        dense, rule = problem.dense(), TruncationRule(eps=1e-8)
        plain = BandTLRMatrix.from_problem(problem, rule, band_size=1)
        adaptive = BandTLRMatrix.from_problem(problem, rule, 1, defer=True)
        tlr_cholesky(plain)
        report = tlr_cholesky(adaptive)
        assert report.tiles_densified_online > 0
        for (i, j), tile in adaptive.tiles.items():
            # column 0 is assembled eagerly, never pending, never checked
            if i == j or j == 0 or isinstance(tile, DenseTile):
                continue
            # a compressed tile that stayed low-rank is under the rule
            assert not keep_dense(tile.rank, (125, 125)), (i, j)
        assert backward_error(adaptive, dense) <= 10 * 1e-8
        assert backward_error(adaptive, dense) <= 1.5 * backward_error(
            plain, dense
        )


# ----------------------------------------------------------------------
# the fused graph, and (f) its communication
# ----------------------------------------------------------------------
class TestFusedGraph:
    @pytest.mark.parametrize("band", [1, 2, 3])
    def test_one_task_per_lowrank_destination(self, band):
        nt = 7
        g = build_cholesky_graph(nt, band, 64, lambda i, j: 8, fused=True)
        g.validate()
        gemms = [t for t in g.tasks.values() if t.kind is TaskKind.GEMM]
        by_tile = {}
        for t in gemms:
            by_tile.setdefault(t.out_tile, []).append(t)
        for (m, n), tasks in by_tile.items():
            if m - n < band:
                assert len(tasks) == n  # dense: the right-looking chain
                continue
            (task,) = tasks
            assert task.tid == (TaskKind.GEMM, m, n, n - 1)
            sources = {e.src for e in task.deps}
            assert sources == {
                (TaskKind.TRSM, r, j) for r in (m, n) for j in range(n)
            }
            assert task.kernel is (
                KernelClass.GEMM_LR if n >= band else KernelClass.GEMM_LR_DENSE
            )
        updated = {
            (m, n) for m in range(nt) for n in range(1, m) if m - n >= band
        }
        assert updated <= set(by_tile)

    def test_default_graph_is_the_papers_ptg(self):
        nt = 6
        g = build_cholesky_graph(nt, 2, 64, lambda i, j: 8)
        assert g.n_tasks == nt + 2 * (nt * (nt - 1) // 2) + (
            nt * (nt - 1) * (nt - 2) // 6
        )

    @pytest.mark.parametrize("ranks", [2, 3, 4])
    def test_realized_comm_equals_simulated_comm(self, problem, ranks):
        m = BandTLRMatrix.from_problem(problem, TruncationRule(eps=1e-4), 2)
        g = graph_for_matrix(m)
        dist = default_distribution(g, ranks)
        rep = execute_graph_distributed(g, m, n_ranks=ranks, _inline=True)
        sim = simulate(g, dist, MachineSpec(nodes=ranks, cores_per_node=1))
        for field in (
            "local_edges", "remote_edges", "messages", "bytes_sent",
            "broadcasts",
        ):
            assert getattr(rep.comm, field) == getattr(sim.comm, field), field
        assert rep.dataflow.edges == classify_dataflow(g, dist).edges
        # owner computes: a tile's only writers share its owner, so a
        # fused task still receives nothing but final panel tiles
        remote_sources = {
            src for (src, _dst, loc) in rep.dataflow.edges if loc == "remote"
        }
        assert remote_sources <= {TaskKind.POTRF, TaskKind.TRSM}


# ----------------------------------------------------------------------
# (g) compress once, after the update
# ----------------------------------------------------------------------
def n_pending(matrix):
    return sum(isinstance(t, PendingTile) for t in matrix.tiles.values())


class TestDeferred:
    RULE = TruncationRule(eps=1e-4)

    def build(self, problem, defer=True, rule=None, band=2, **kwargs):
        return BandTLRMatrix.from_problem(
            problem, rule or self.RULE, band, defer=defer, **kwargs
        )

    @pytest.mark.parametrize("n_workers", [None, 2])
    @pytest.mark.parametrize("precision", [None, "adaptive"])
    @pytest.mark.parametrize("backend", ["svd", "rsvd", "auto"])
    def test_realize_is_the_eager_matrix(
        self, problem, backend, precision, n_workers
    ):
        rule = TruncationRule(eps=EPS_FOR[precision])
        kwargs = dict(backend=backend, n_workers=n_workers)
        deferred = self.build(problem, rule=rule, **kwargs)
        # NT = 8 at band 2: 21 off-band tiles, 15 of them in columns >= 1
        assert n_pending(deferred) == 15
        assert deferred.copy().tile(7, 1) is deferred.tile(7, 1)
        assert deferred.rank_grid()[7, 1] == -1
        assert deferred.realize() is deferred and n_pending(deferred) == 0
        assert_bitwise(deferred, ruled(problem, rule, 2, **kwargs))

    @pytest.mark.parametrize("precision", [None, "adaptive"])
    def test_loops_are_the_core_and_repeat(self, problem, precision):
        rule = TruncationRule(eps=EPS_FOR[precision])
        ref = self.build(problem, rule=rule)
        ref_report = tlr_cholesky(ref)
        assert n_pending(ref) == 0
        assert ref_report.rank_growth_events == 0  # a first compression
        again = self.build(problem, rule=rule)
        tlr_cholesky(again)
        assert_bitwise(again, ref)
        for n_workers in (1, 2, 3):
            m = self.build(problem, rule=rule)
            report = tlr_cholesky(m, n_workers=n_workers)
            assert_bitwise(m, ref)
            assert (
                report.counter.per_class_count
                == ref_report.counter.per_class_count
            )
            assert report.max_rank_seen == ref_report.max_rank_seen

    @pytest.mark.parametrize("how", ["processes", "checkpoint"])
    def test_realizing_branches_are_the_eager_call(
        self, problem, tmp_path, how
    ):
        kwargs = {
            "processes": dict(executor="processes", n_ranks=2),
            "checkpoint": dict(
                checkpoint=CheckpointConfig(tmp_path / "d", every=8)
            ),
        }[how]
        eager, deferred = ruled(problem, self.RULE, 2), self.build(problem)
        if how == "checkpoint":
            tlr_cholesky(
                eager, checkpoint=CheckpointConfig(tmp_path / "e", every=8)
            )
        else:
            tlr_cholesky(eager, **kwargs)
        tlr_cholesky(deferred, **kwargs)
        assert_bitwise(deferred, eager)
        if how == "checkpoint":  # the finished run, restored
            resumed = self.build(problem)
            report = tlr_cholesky(resumed, resume=True, **kwargs)
            assert report.tasks_resumed > 0
            assert_bitwise(resumed, eager)

    def test_faults_roll_back_to_the_pending_tile(self, problem):
        """The recovery engine runs on the deferred matrix itself: a
        pending tile is its own snapshot."""
        ref, chaotic = self.build(problem), self.build(problem)
        tlr_cholesky(ref)
        report = tlr_cholesky(chaotic, faults="nan:gemm:0.3")
        assert report.resilience.retries > 0
        assert_bitwise(chaotic, ref)

    @pytest.mark.parametrize("eps", [1e-4, 1e-8])
    def test_accuracy(self, problem, eps):
        rule = TruncationRule(eps=eps)
        dense = problem.dense()
        eager = self.build(problem, defer=False, rule=rule)
        deferred = self.build(problem, rule=rule)
        oracle = self.build(problem, defer=False, rule=rule, backend="svd")
        for m in (eager, deferred, oracle):
            tlr_cholesky(m)
        err = backward_error(deferred, dense)
        assert err <= 10 * eps
        assert err <= 1.5 * backward_error(eager, dense)
        for ij, t in deferred.tiles.items():
            if isinstance(t, LowRankTile):
                k = oracle.tile(*ij).rank
                assert t.rank <= k + max(2, 0.05 * k), ij

    def test_one_compression_and_one_generation_per_tile(
        self, problem, monkeypatch
    ):
        compressed, generated = [], []
        compress, tile = SVDBackend.compress, CovarianceProblem.tile

        def counting_compress(self, a, rule, **kwargs):
            compressed.append(kwargs.get("rank_hint"))
            return compress(self, a, rule, **kwargs)

        def counting_tile(self, i, j):
            generated.append((i, j))
            return tile(self, i, j)

        monkeypatch.setattr(SVDBackend, "compress", counting_compress)
        monkeypatch.setattr(CovarianceProblem, "tile", counting_tile)
        m = self.build(problem, backend="svd")
        assert len(compressed) == 6 and len(generated) == 15 + 6
        tlr_cholesky(m)
        assert compressed == [None] * 21  # never a second, hinted rounding
        assert sorted(generated) == sorted(m.tiles)

    @pytest.mark.parametrize(
        "n,band,eps,pending",
        [
            (100, 1, 1e-4, 0),   # NT = 1
            (200, 1, 1e-4, 0),   # NT = 2: column 0 only
            (400, 4, 1e-4, 0),   # band >= NT: all dense
            (350, 1, 1e-4, 3),   # ragged last tile (50 rows)
            (400, 1, 1.0, 3),    # rank-0 tiles, rank-0 updates
            (400, 1, 1e-8, 3),
        ],
    )
    def test_edges(self, n, band, eps, pending):
        small = st_3d_exp_problem(n, 100, seed=3)
        rule = TruncationRule(eps=eps)
        loops = self.build(small, rule=rule, band=band)
        assert n_pending(loops) == pending
        tlr_cholesky(loops)
        core = self.build(small, rule=rule, band=band)
        tlr_cholesky(core, n_workers=2)
        assert_bitwise(core, loops)
        if eps < 1.0:
            assert backward_error(loops, small.dense()) <= 10 * eps
        else:
            assert loops.rank_stats()[0] == 0

    def test_readers_handle_pending_tiles_or_say_what_to_call(
        self, problem, tmp_path
    ):
        m = self.build(problem)
        x = np.ones(m.n)
        for reader in (
            lambda: forward_solve(m, x),
            lambda: solve_spd(m, x),
            lambda: log_likelihood(m, x),
            lambda: tlr_matvec(m, x),
            lambda: save_matrix(m, tmp_path / "m.npz"),
            lambda: footprint_report(m),
        ):
            with pytest.raises(ConfigurationError, match=r"realize\(\)"):
                reader()
        # handled: the exact block stands in for a tile not compressed yet
        eager = self.build(problem, defer=False)
        assert np.linalg.norm(m.to_dense() - eager.to_dense()) <= 1e-3
        wider = m.with_band_size(3, problem)
        assert isinstance(wider.tile(3, 1), DenseTile)
        assert wider.tile(4, 1) is m.tile(4, 1)
        assert m.tile(7, 1).dtype == np.float32  # what it is compressed in
        assert_bitwise(m.realize(), ruled(problem, self.RULE, 2))
