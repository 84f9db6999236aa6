"""Tests for the compressor's two routes, its rule, and parallel assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import st_3d_exp_problem
from repro.linalg import (
    AutoBackend,
    LowRankTile,
    RandomizedSVDBackend,
    SVDBackend,
    TruncationRule,
    default_backend,
    get_backend,
)
from repro.linalg import backends
from repro.linalg.backends import _qr_svd_recompress
from repro.matrix import BandTLRMatrix
from repro.core import tlr_cholesky
from repro.runtime import parallel_map
from repro.utils import ConfigurationError

from .conftest import pin_route

SVD = SVDBackend()
RSVD = get_backend("rsvd")


def _matern_tile(n, b, i, j, seed=0):
    """An off-diagonal tile of the st-3D-exp covariance (genuinely low-rank)."""
    return st_3d_exp_problem(n, b, seed=seed).tile(i, j)


def _lowrank_matrix(m, n, k, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k)) @ rng.standard_normal((k, n))


class TestRegistry:
    def test_names_resolve_to_shared_instances(self):
        assert get_backend("svd") is get_backend("svd")
        assert get_backend("rsvd") is get_backend("rsvd")
        assert isinstance(get_backend("svd"), SVDBackend)
        assert isinstance(get_backend("rsvd"), RandomizedSVDBackend)

    def test_default_is_auto(self):
        assert default_backend() is get_backend("auto")
        assert isinstance(default_backend(), AutoBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_backend("rrqr")


class TestRsvdAccuracy:
    @pytest.mark.parametrize("b", [100, 150, 250])
    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_matches_exact_svd_within_eps_on_matern(self, b, eps):
        a = _matern_tile(4 * b, b, 3, 0, seed=2021)
        rule = TruncationRule(eps=eps)
        exact = SVD.compress(a, rule)
        rand = RSVD.compress(a, rule)
        # Both reconstructions honour the spectral-norm bound (the rsvd
        # certificate is probabilistic, so allow a small slack factor).
        assert np.linalg.norm(a - exact.to_dense(), 2) <= eps
        assert np.linalg.norm(a - rand.to_dense(), 2) <= 3.0 * eps
        # And the adaptive rank lands at (essentially) the exact rank.
        assert abs(rand.rank - exact.rank) <= 2

    def test_relative_rule(self):
        a = 1e6 * _matern_tile(400, 100, 2, 0, seed=5)
        rule = TruncationRule(eps=1e-6, relative=True)
        tile = RSVD.compress(a, rule)
        s1 = np.linalg.norm(a, 2)
        assert np.linalg.norm(a - tile.to_dense(), 2) <= 3e-6 * s1

    def test_frobenius_rule(self):
        a = _matern_tile(400, 100, 2, 0, seed=5)
        rule = TruncationRule(eps=1e-6, norm="frobenius")
        tile = RSVD.compress(a, rule)
        assert np.linalg.norm(a - tile.to_dense()) <= 3e-6

    def test_maxrank_cap_respected(self):
        a = _matern_tile(400, 100, 2, 0, seed=5)
        rule = TruncationRule(eps=1e-12, maxrank=10)
        tile = RSVD.compress(a, rule)
        assert tile.rank <= 10

    def test_full_rank_matrix_falls_back_to_exact(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((120, 120))  # no decay: must fall back
        rule = TruncationRule(eps=1e-8)
        tile = RSVD.compress(a, rule)
        exact = SVD.compress(a, rule)
        assert tile.rank == exact.rank
        np.testing.assert_allclose(tile.to_dense(), a, atol=1e-7)

    def test_small_tiles_short_circuit_to_exact(self):
        a = _lowrank_matrix(40, 40, 5, seed=1)
        exact = SVD.compress(a, TruncationRule(eps=1e-8))
        rand = RSVD.compress(a, TruncationRule(eps=1e-8))
        # min(m, n) <= min_exact_dim: identical code path, identical result.
        np.testing.assert_array_equal(rand.u, exact.u)
        np.testing.assert_array_equal(rand.v, exact.v)

    def test_zero_matrix(self):
        tile = RSVD.compress(np.zeros((128, 128)), TruncationRule(eps=1e-8))
        assert tile.rank == 0

    def test_seed_reproducibility(self):
        """The sampler's Gaussians come from a pool drawn from a fixed
        seed: one block compressed twice gives the same bits."""
        a = _matern_tile(400, 100, 2, 0, seed=9)
        rule = TruncationRule(eps=1e-6)
        t1 = RSVD.compress(a, rule)
        t2 = RSVD.compress(a, rule)
        np.testing.assert_array_equal(t1.u, t2.u)
        np.testing.assert_array_equal(t1.v, t2.v)

    @pytest.mark.slow
    @settings(max_examples=10, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_exactly_lowrank_inputs_recovered(self, k, seed):
        a = _lowrank_matrix(130, 110, k, seed=seed)
        rule = TruncationRule(eps=1e-8, relative=True)
        tile = RSVD.compress(a, rule)
        assert tile.rank <= k
        err = np.linalg.norm(a - tile.to_dense(), 2)
        assert err <= 1e-6 * np.linalg.norm(a, 2)


class TestRankHint:
    """``compress(..., rank_hint=)``: the first sample block and the
    sample-or-exact choice, on the sampler itself and through ``auto``."""

    B = 160
    RULE = TruncationRule(eps=1e-6)

    @pytest.fixture(scope="class")
    def tile(self):
        a = _matern_tile(8 * self.B, self.B, 7, 0, seed=11)
        return a, SVDBackend().compress(a, self.RULE)

    @pytest.mark.parametrize("backend", ["rsvd", "auto"])
    @pytest.mark.parametrize("hint", [0, 3, "rank", "rank+9"])
    def test_any_hint_certifies_eps(self, tile, backend, hint):
        """A hint of zero, one far below the true rank (the sampler must
        grow past it) and one at or above it all reach the rule's ε."""
        a, exact = tile
        assert 3 * (exact.rank + 9) < self.B  # every hint here is sampled
        hints = {"rank": exact.rank, "rank+9": exact.rank + 9}
        got = get_backend(backend).compress(
            a, self.RULE, rank_hint=hints.get(hint, hint)
        )
        assert np.linalg.norm(a - got.to_dense(), 2) <= 3.0 * self.RULE.eps
        assert abs(got.rank - exact.rank) <= 2

    @pytest.mark.parametrize("backend", ["rsvd", "auto"])
    def test_hint_from_a_third_of_the_tile_is_the_exact_path(self, tile, backend):
        a, exact = tile
        below, at = self.B // 3 - 1, self.B // 3
        got = get_backend(backend).compress(a, self.RULE, rank_hint=at)
        np.testing.assert_array_equal(got.u, exact.u)
        np.testing.assert_array_equal(got.v, exact.v)
        sampled = get_backend(backend).compress(a, self.RULE, rank_hint=below)
        assert not np.array_equal(sampled.u, exact.u)

    def test_maxrank_below_the_hint(self, tile):
        a, exact = tile
        rule = self.RULE.with_maxrank(6)
        got = get_backend("rsvd").compress(a, rule, rank_hint=exact.rank)
        assert got.rank == 6
        # the cap voids the ε guarantee, not the quality of what is kept
        best = np.linalg.svd(a, compute_uv=False)[6]
        assert np.linalg.norm(a - got.to_dense(), 2) <= 1.5 * best

    def test_frobenius_rule(self, tile):
        a, _ = tile
        rule = TruncationRule(eps=1e-6, norm="frobenius")
        exact = SVDBackend().compress(a, rule)
        got = get_backend("rsvd").compress(a, rule, rank_hint=exact.rank)
        assert np.linalg.norm(a - got.to_dense()) <= 3e-6
        assert abs(got.rank - exact.rank) <= 2

    def test_same_input_seed_and_hint_same_bits(self, tile):
        a, exact = tile
        runs = [
            get_backend("rsvd").compress(a, self.RULE, rank_hint=hint)
            for hint in (exact.rank, exact.rank, exact.rank + 1)
        ]
        np.testing.assert_array_equal(runs[0].u, runs[1].u)
        np.testing.assert_array_equal(runs[0].v, runs[1].v)
        assert runs[2].u.shape != runs[0].u.shape or not np.array_equal(
            runs[2].u, runs[0].u
        )  # the hint is part of what is drawn

    @pytest.mark.parametrize("hint", [None, 20])
    def test_float32_in_float32_out(self, tile, hint):
        """ε = 1e-4 clears the precision policy's fp32 floor (1e-7): the
        single-precision sampler stays inside the same 3·ε budget."""
        a, _ = tile
        rule = TruncationRule(eps=1e-4)
        a32 = a.astype(np.float32)
        got = get_backend("rsvd").compress(a32, rule, rank_hint=hint)
        assert got.dtype == np.float32
        assert np.linalg.norm(a - got.to_dense(), 2) <= 3.0 * rule.eps
        assert abs(got.rank - SVDBackend().compress(a, rule).rank) <= 2

    @pytest.mark.parametrize("backend", ["svd", "rsvd"])
    def test_float32_zero_tiles_keep_their_dtype(self, backend):
        be = get_backend(backend)
        rule = TruncationRule(eps=1e-4)
        zeros = np.zeros((128, 128), np.float32)
        tiny = np.full((128, 128), 1e-9, np.float32)  # truncated to rank 0
        c = LowRankTile(
            np.ones((128, 70), np.float32), np.zeros((128, 70), np.float32)
        )  # a zero tile of width 70: the rounding takes the dense sum
        for a in (zeros, tiny):
            res = be.recompress_update(c, a[:, :1], a[:, :1], rule)
            assert res.rank_after == 0 and res.tile.dtype == np.float32
            direct = be.compress(a, rule)
            assert direct.rank == 0 and direct.dtype == np.float32

    def test_wide_rounding_passes_the_tiles_rank(self):
        seen = []

        class Spy(SVDBackend):
            def compress(self, a, rule, *, rank_hint=None):
                seen.append(rank_hint)
                return super().compress(a, rule)

        rng = np.random.default_rng(0)
        c = SVD.compress(_lowrank_matrix(64, 64, 9, seed=1), self.RULE)
        u, v = rng.standard_normal((2, 64, 30))
        Spy().recompress_update(c, u, v, self.RULE)
        assert seen == [c.rank]


class TestAutoDispatch:
    """``AutoBackend.select`` is the documented surface and nothing else."""

    @pytest.mark.parametrize(
        "eps,sampled_from",
        [(1e-2, 100), (1e-4, 100), (1e-5, 250), (1e-6, 250), (1e-7, None),
         (1e-8, None), (1e-12, None)],
    )
    def test_unhinted_surface(self, eps, sampled_from):
        auto = AutoBackend()
        for b in (32, 64, 99, 100, 150, 200, 249, 250, 400, 1000):
            want = "rsvd" if sampled_from and b >= sampled_from else "svd"
            assert auto.select((b, b), TruncationRule(eps=eps)) == want, b
            # ragged blocks read their short side
            assert auto.select((b, 4 * b), TruncationRule(eps=eps)) == want

    @pytest.mark.parametrize("b", [32, 64, 65, 100, 200, 400])
    def test_hinted_rule_is_rank_over_size_whatever_the_eps(self, b):
        auto = AutoBackend()
        for eps in (1e-2, 1e-8, 1e-12):
            rule = TruncationRule(eps=eps)
            for hint in (0, 1, b // 3 - 1, b // 3, b // 2, b):
                want = "rsvd" if b > 64 and hint < b // 3 else "svd"
                assert auto.select((b, b), rule, hint) == want, (eps, hint)

    def test_reads_nothing_but_shape_rule_and_hint(self):
        """Two instances with different histories, blocks of different
        content: same shape, rule and hint, same route."""
        fresh, used = AutoBackend(), AutoBackend()
        rule = TruncationRule(eps=1e-4)
        for k in (3, 40):
            used.compress(_lowrank_matrix(128, 128, k, seed=k), rule)
        grid = [((b, b), h) for b in (64, 128, 256) for h in (None, 0, 50, 90)]
        assert [fresh.select(s, rule, h) for s, h in grid] == [
            used.select(s, rule, h) for s, h in grid
        ]

    def test_compress_takes_the_route_select_names(self, monkeypatch):
        auto = AutoBackend()
        calls = []
        for be in (auto._svd, auto._rsvd):
            monkeypatch.setattr(
                be, "compress",
                lambda a, rule, *, rank_hint=None, _n=be.name: (
                    calls.append(_n)
                ),
            )
        rule = TruncationRule(eps=1e-4)
        cases = [((128, 128), None), ((96, 96), None), ((128, 128), 10),
                 ((128, 128), 60), ((60, 200), 5)]
        for shape, hint in cases:
            auto.compress(np.zeros(shape), rule, rank_hint=hint)
        assert calls == [auto.select(s, rule, h) for s, h in cases]
        assert calls == ["rsvd", "svd", "rsvd", "svd", "svd"]


class TestBackendRecompression:
    def test_recompress_update_equals_stacked_recompress(self):
        rng = np.random.default_rng(4)
        backend = SVDBackend()
        rule = TruncationRule(eps=1e-10)
        c = SVD.compress(_lowrank_matrix(60, 60, 6, seed=1), rule)
        u_upd = rng.standard_normal((60, 4))
        v_upd = rng.standard_normal((60, 4))
        res = backend.recompress_update(c, u_upd, v_upd, rule)
        ref = _qr_svd_recompress(
            np.asfortranarray(np.hstack([c.u, u_upd])),
            np.asfortranarray(np.hstack([c.v, -v_upd])),
            rule,
            c.rank,
        )
        np.testing.assert_allclose(
            res.tile.to_dense(), ref.tile.to_dense(), atol=1e-12
        )
        assert res.rank_before == ref.rank_before
        assert res.rank_after == ref.rank_after

    def test_workspace_pool_is_reused(self):
        backend = SVDBackend()
        rule = TruncationRule(eps=1e-10)
        c = SVD.compress(_lowrank_matrix(60, 60, 6, seed=1), rule)
        rng = np.random.default_rng(5)
        for _ in range(5):  # same shapes -> the one buffer serves rounds 2-5
            backend.recompress_update(
                c, rng.standard_normal((60, 4)), rng.standard_normal((60, 4)), rule
            )
        stats = backend.workspace_pool_stats
        assert stats is not None
        assert (stats.allocations, stats.reuses) == (1, 4)
        assert stats.outstanding_bytes == 0

    def test_workspace_gives_memory_back(self, monkeypatch):
        """Every distinct stack width used to pin its own buffer pair for
        the life of the process (90 MB idle after one N=3200 run); the
        workspace now idles at no more than its largest request."""
        backend = default_backend()
        monkeypatch.setattr(backend, "_workspace", None)  # a fresh one
        # loose accuracy on 128-wide tiles: most accumulated widths stay
        # under b/2, the only roundings that take the workspace
        rule = TruncationRule(eps=1e-3)
        problem = st_3d_exp_problem(1536, 128, seed=5)
        m = BandTLRMatrix.from_problem(problem, rule, 1)
        tlr_cholesky(m)
        stats = backend.workspace_pool_stats
        assert stats.reuses > stats.allocations  # many widths, few buffers
        assert stats.outstanding_bytes == 0
        # peak_bytes is the largest single request: roundings never nest
        assert 0 < backend.workspace_idle_bytes <= 2 * stats.peak_bytes


class TestParallelMap:
    def test_preserves_order(self):
        out = parallel_map(lambda x: x * x, list(range(50)), n_workers=4)
        assert out == [x * x for x in range(50)]

    def test_serial_path(self):
        assert parallel_map(lambda x: x + 1, [1, 2, 3], n_workers=None) == [2, 3, 4]
        assert parallel_map(lambda x: x + 1, [], n_workers=8) == []

    def test_propagates_exceptions(self):
        def boom(x):
            if x == 3:
                raise ValueError("item 3")
            return x

        with pytest.raises(ValueError, match="item 3"):
            parallel_map(boom, list(range(8)), n_workers=3)


class TestParallelAssembly:
    @pytest.mark.parametrize("route", ["svd", "rsvd"])
    def test_from_problem_bitwise_across_worker_counts(self, route, monkeypatch):
        pin_route(monkeypatch, route)
        problem = st_3d_exp_problem(600, 100, seed=2021)
        rule = TruncationRule(eps=1e-6)
        mats = [
            BandTLRMatrix.from_problem(problem, rule, band_size=2, n_workers=w)
            for w in (None, 2, 3)
        ]
        for other in mats[1:]:
            assert mats[0].tiles.keys() == other.tiles.keys()
            for ij, tile in mats[0].tiles.items():
                peer = other.tiles[ij]
                assert type(tile) is type(peer)
                np.testing.assert_array_equal(
                    tile.to_dense(), peer.to_dense(), err_msg=str(ij)
                )

    def test_from_dense_parallel_matches_serial(self):
        a = st_3d_exp_problem(512, 64, seed=3).dense()
        rule = TruncationRule(eps=1e-8)
        m1 = BandTLRMatrix.from_dense(a, 64, rule, band_size=1)
        m2 = BandTLRMatrix.from_dense(a, 64, rule, band_size=1, n_workers=4)
        for ij in m1.tiles:
            np.testing.assert_array_equal(
                m1.tiles[ij].to_dense(), m2.tiles[ij].to_dense()
            )

    def test_backend_survives_band_change_and_copy(self):
        """A band change compresses the tiles leaving the band as the
        assembly would (same compressor, same per-tile seed)."""
        problem = st_3d_exp_problem(600, 100, seed=1)
        rule = TruncationRule(eps=1e-4)  # the sampled route at b = 100
        wide = BandTLRMatrix.from_problem(problem, rule, 3)
        for mat in (wide.with_band_size(1, problem), wide.copy()):
            want = BandTLRMatrix.from_problem(problem, rule, mat.band_size)
            for ij, tile in want.tiles.items():
                np.testing.assert_array_equal(
                    tile.to_dense(), mat.tiles[ij].to_dense(), err_msg=str(ij)
                )

    def test_rsvd_factorization_stays_within_accuracy(self, monkeypatch):
        pin_route(monkeypatch, "rsvd")
        problem = st_3d_exp_problem(600, 100, seed=2021)
        ref = problem.dense()
        rule = TruncationRule(eps=1e-6)
        mat = BandTLRMatrix.from_problem(problem, rule, band_size=2, n_workers=2)
        from repro.core import tlr_cholesky

        tlr_cholesky(mat)
        l = mat.to_dense(lower_only=True)
        err = np.linalg.norm(l @ l.T - ref) / np.linalg.norm(ref)
        assert err <= 1e-5



class TestSampledBasis:
    def test_a_qr_on_a_copy_still_fills_the_basis(self, monkeypatch):
        """The sampler's QR factors each sampled block in place; were it
        to run on a copy, the returned Q is copied into the basis, and
        the factors keep their bits."""
        a = _matern_tile(1600, 200, 7, 0).astype(np.float32)
        rule = TruncationRule(eps=1e-4)
        rsvd = RandomizedSVDBackend()
        want = rsvd.compress(a, rule)
        qr = backends._econ_qr
        copies = []

        def on_a_copy(y):
            q, r = qr(y)
            copies.append(q is y)
            q = q.copy(order="F")
            y[...] = np.nan  # what a discarded copy would leave behind
            return q, r

        monkeypatch.setattr(backends, "_econ_qr", on_a_copy)
        got = rsvd.compress(a, rule)
        assert copies and all(copies)
        np.testing.assert_array_equal(got.u, want.u)
        np.testing.assert_array_equal(got.v, want.v)


class TestGaussianPool:
    """The sampler's test matrices: one read-only pool per (side, dtype)."""

    def test_pool_is_read_only_and_pinned(self):
        from repro.linalg.backends import gaussian_pool

        pool = gaussian_pool(100, "f", 40)
        gaussian_pool.cache_clear()
        redrawn = gaussian_pool(100, "f", 40)
        assert redrawn is not pool
        np.testing.assert_array_equal(pool, redrawn)
        assert pool.shape == (100, 40)
        assert pool.dtype == np.float32 and pool.flags.f_contiguous
        for array in pool, pool.base:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        assert gaussian_pool(100, "f", 40) is redrawn
        # a wider pool of the same side only adds columns
        np.testing.assert_array_equal(gaussian_pool(100, "f", 103)[:, :40], pool)

    def test_a_compression_reads_the_narrow_pool(self, monkeypatch):
        """A compression samples at most 2·BLOCK_SIZE columns past the rank
        where its tile goes exact, so its pool stops there; only the
        ablation's ``_max_rank`` override reads one as wide as the tile."""
        widths = []
        pool = backends.gaussian_pool

        def spy(n, char, width):
            widths.append(width)
            return pool(n, char, width)

        monkeypatch.setattr(backends, "gaussian_pool", spy)
        rsvd = RandomizedSVDBackend()
        a = _matern_tile(1600, 200, 7, 0)
        narrow = rsvd.PROBES + rsvd._max_rank(200) + 2 * rsvd.BLOCK_SIZE
        rule = TruncationRule(eps=1e-4)
        rsvd.compress(a, rule)
        rsvd.compress(a, rule, rank_hint=rsvd._max_rank(200) - 1)
        rsvd._compress_ara(a, rule, None, _max_rank=200)
        assert widths == [narrow, narrow, rsvd.PROBES + 200]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_threads_compress_one_block_bitwise(self, dtype):
        """Two threads compressing the same block on a 1e-5 s switch
        interval, into a fresh compressor and an emptied pool cache that
        they draw from together, give one thread's bits."""
        import sys
        import threading

        a = _matern_tile(1200, 200, 5, 0, seed=3).astype(dtype)
        rule = TruncationRule(eps=1e-4)
        want = RandomizedSVDBackend().compress(a, rule)
        shared = RandomizedSVDBackend()
        backends.gaussian_pool.cache_clear()
        got = [[] for _ in range(2)]

        def work(out):
            for hint in (None, want.rank, None):
                out.append(shared.compress(a, rule, rank_hint=hint))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(g,)) for g in got]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)
        for tiles in got:
            assert len(tiles) == 3
            for tile in tiles[::2]:
                np.testing.assert_array_equal(tile.u, want.u)
                np.testing.assert_array_equal(tile.v, want.v)
        hinted = RandomizedSVDBackend().compress(a, rule, rank_hint=want.rank)
        np.testing.assert_array_equal(got[0][1].u, hinted.u)
        np.testing.assert_array_equal(got[1][1].v, hinted.v)


class TestSpectralCertificate:
    """``_spectral_estimate`` on the explicit residual ``R = A - QB``:
    never above ``||R||_2`` beyond roundoff, and a useful fraction of it."""

    @staticmethod
    def _basis(a, k):
        """An orthonormal basis of ``k`` sampled columns and ``B = QᵀA``."""
        omega = np.random.default_rng(7).standard_normal((a.shape[1], k))
        q, _ = np.linalg.qr(a @ omega.astype(a.dtype))
        return q.astype(a.dtype), (q.T @ a).astype(a.dtype)

    @staticmethod
    def _flat_tail(n):
        """Singular values 1, 0.5, 0.25, … then a flat tail of 1e-4."""
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = np.maximum(0.5 ** np.arange(n), 1e-4)
        return (u * s) @ v.T

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("source", ["matern", "flat-tail"])
    @pytest.mark.parametrize("k", [4, 12, 24])
    def test_bounded_by_the_residual_norm(self, dtype, source, k):
        from repro.linalg.backends import _residual

        if source == "matern":
            blocks = [
                _matern_tile(1600, 200, i, j, seed=5) for i, j in ((4, 0), (7, 2))
            ]
        else:
            blocks = [self._flat_tail(200)]
        rsvd = RandomizedSVDBackend()
        for a in blocks:
            a = a.astype(dtype)
            q, b = self._basis(a, k)
            resid = _residual(a, q, b)
            np.testing.assert_allclose(resid, a - q @ b, atol=1e-5 * abs(a).max())
            true = np.linalg.norm(resid.astype(np.float64), 2)
            est = rsvd._spectral_estimate(
                resid, backends.gaussian_pool(200, np.dtype(dtype).char, 8)
            )
            assert est <= true * (1 + 1e-5)
            assert est >= 0.5 * true

    @pytest.mark.parametrize("norm", [1e-3, 1e-5, 1e-7])
    def test_small_float32_residual_does_not_underflow(self, norm):
        """Unscaled, the probes' last iterate of an fp32 residual of norm
        1e-5 squares below the smallest float32 and the estimate reads 0,
        certifying a residual 10x over an ε of 1e-6."""
        rng = np.random.default_rng(1)
        resid = rng.standard_normal((200, 200))
        resid *= norm / np.linalg.norm(resid, 2)
        resid = resid.astype(np.float32)
        rsvd = RandomizedSVDBackend()
        est = rsvd._spectral_estimate(
            resid.copy(), backends.gaussian_pool(200, "f", 8)
        )
        assert 0.5 * norm <= est <= norm * (1 + 1e-5)


class TestExactRouteDtype:
    def test_float32_block_gives_float32_factors_within_eps(self):
        """The exact route returns fp32 factors for an fp32 block, within
        the rule's ε of the fp64 tile (the oracle stays fp64), at every ε
        an fp32 tile is compressed to.  It runs ``sgesdd`` where ε clears
        the single-precision roundoff of the tile (ε = 1e-4 here) and
        ``dgesdd`` below it: ``sgesdd`` leaves 1.35e-6 on this tile.  At
        ε = 1e-7 the fp32 storage of the factors is itself the floor:
        no worse than the fp64 oracle's factors stored in fp32."""
        a = _matern_tile(1600, 200, 6, 1, seed=2)
        single = []
        for eps in (1e-4, 1e-5, 1e-6, 1e-7):
            rule = TruncationRule(eps=eps)
            a32 = a.astype(np.float32)
            single.append(backends._svd_dtype(a32, rule) == np.float32)
            got = SVD.compress(a32, rule)
            assert got.dtype == np.float32
            err = np.linalg.norm(a - got.to_dense(), 2)
            oracle = SVD.compress(a, rule)
            stored = np.linalg.norm(
                a - oracle.u.astype(np.float32) @ oracle.v.astype(np.float32).T,
                2,
            )
            assert err <= max(eps, 1.05 * stored), eps
            assert got.rank == oracle.rank
        assert single == [True, False, False, False]

class TestCLI:
    def test_demo_with_rsvd(self, capsys, monkeypatch):
        """``demo`` at a tile size and ε where the compressor samples."""
        from repro.__main__ import main

        sampled = []
        ara = RandomizedSVDBackend._compress_ara

        def counting(self, *args, **kwargs):
            sampled.append(args[0].shape)
            return ara(self, *args, **kwargs)

        monkeypatch.setattr(RandomizedSVDBackend, "_compress_ara", counting)
        rc = main(
            ["demo", "--n", "512", "--tile", "128", "--accuracy", "1e-4"]
        )
        assert rc == 0
        assert sampled
        out = capsys.readouterr().out
        assert "factor at eps=0.0001: band=" in out
        assert "solve relative error" in out
