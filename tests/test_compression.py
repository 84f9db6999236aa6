"""Unit + property tests for compression and recompression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TLRSolver, st_3d_exp_problem
from repro.linalg import (
    LowRankTile,
    TruncationRule,
    default_backend,
    truncation_rank,
)
from repro.utils import ConfigurationError


def _lowrank_matrix(m, n, k, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((m, k)) @ rng.standard_normal((k, n)))


def _compress(a, rule):
    """The library's compressor on one block."""
    return default_backend().compress(a, rule)


def _round(u_stack, v_stack, rule, previous_rank=None):
    """Round ``u_stack @ v_stack.T``: the first ``previous_rank`` columns
    are the destination tile, the rest the update (its V negated, since
    the rounding subtracts)."""
    k = u_stack.shape[1] if previous_rank is None else previous_rank
    c = LowRankTile(
        np.ascontiguousarray(u_stack[:, :k]), np.ascontiguousarray(v_stack[:, :k])
    )
    return default_backend().recompress_update(
        c, u_stack[:, k:], -v_stack[:, k:], rule
    )


class TestTruncationRule:
    def test_defaults(self):
        r = TruncationRule()
        assert r.eps == 1e-8
        assert r.norm == "spectral"
        assert r.maxrank is None

    def test_rejects_bad_norm(self):
        with pytest.raises(ConfigurationError):
            TruncationRule(norm="nuclear")

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ConfigurationError):
            TruncationRule(eps=0.0)

    @pytest.mark.parametrize("eps", [1.0, 2.0])
    def test_rejects_eps_of_one_or_more(self, eps):
        with pytest.raises(ConfigurationError, match=r"\(0, 1\)"):
            TruncationRule(eps=eps)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"maxrank": 2.5},
            {"maxrank": True},
            {"maxrank": "3"},
            {"maxrank": -1},
            {"relative": "no"},
            {"relative": 1},
            {"relative": None},
        ],
    )
    def test_rejects_bad_maxrank_and_relative(self, kwargs):
        with pytest.raises(ConfigurationError):
            TruncationRule(**kwargs)

    def test_accepts_numpy_integers_and_bools(self):
        assert TruncationRule(maxrank=np.int64(3)).maxrank == 3
        assert TruncationRule(relative=np.bool_(True)).relative

    def test_solver_refuses_a_fractional_maxrank(self):
        problem = st_3d_exp_problem(512, 128, seed=1, nugget=1e-4)
        with pytest.raises(ConfigurationError, match="maxrank"):
            TLRSolver.from_problem(problem, accuracy=1e-4, maxrank=2.5)

    def test_with_maxrank(self):
        r = TruncationRule().with_maxrank(7)
        assert r.maxrank == 7
        assert TruncationRule().maxrank is None  # original untouched


class TestTruncationRank:
    def test_spectral_counts_above_eps(self):
        s = np.array([1.0, 0.1, 1e-9])
        assert truncation_rank(s, TruncationRule(eps=1e-8)) == 2

    def test_frobenius_tail_energy(self):
        s = np.array([1.0, 3e-9, 4e-9])  # tail norm 5e-9 > 1e-9 -> keep more
        assert truncation_rank(s, TruncationRule(eps=1e-9, norm="frobenius")) == 3
        assert truncation_rank(s, TruncationRule(eps=6e-9, norm="frobenius")) == 1

    def test_relative_scaling(self):
        s = np.array([100.0, 1.0, 1e-7])
        assert truncation_rank(s, TruncationRule(eps=1e-4, relative=True)) == 2

    def test_maxrank_caps(self):
        s = np.ones(10)
        assert truncation_rank(s, TruncationRule(eps=1e-8, maxrank=4)) == 4

    def test_empty(self):
        assert truncation_rank(np.array([]), TruncationRule()) == 0


class TestCompressBlock:
    def test_exact_rank_recovery(self):
        a = _lowrank_matrix(40, 30, 5, seed=1)
        t = _compress(a, TruncationRule(eps=1e-10, relative=True))
        assert t.rank == 5
        np.testing.assert_allclose(t.to_dense(), a, atol=1e-8)

    def test_spectral_error_bound(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((50, 50))
        eps = 1e-2
        t = _compress(a, TruncationRule(eps=eps, relative=True))
        err = np.linalg.norm(a - t.to_dense(), 2)
        assert err <= eps * np.linalg.norm(a, 2) * 1.001

    def test_zero_matrix_gives_rank_zero(self):
        t = _compress(np.zeros((10, 8)), TruncationRule())
        assert t.rank == 0

    def test_balanced_factors(self):
        a = _lowrank_matrix(30, 30, 3, seed=3, scale=100.0)
        t = _compress(a, TruncationRule(eps=1e-6))
        # sqrt(s) folding balances the factor norms.
        assert np.linalg.norm(t.u) == pytest.approx(np.linalg.norm(t.v), rel=1e-6)

    def test_maxrank_truncates(self):
        a = np.diag(np.arange(1, 11, dtype=float))
        t = _compress(a, TruncationRule(eps=1e-12, maxrank=4))
        assert t.rank == 4

    def test_rectangular(self):
        a = _lowrank_matrix(20, 60, 4, seed=4)
        t = _compress(a, TruncationRule(eps=1e-10, relative=True))
        assert t.shape == (20, 60)
        np.testing.assert_allclose(t.to_dense(), a, atol=1e-7)


class TestRecompress:
    def test_merges_redundant_rank(self):
        a = _lowrank_matrix(30, 25, 3, seed=5)
        t1 = _compress(a, TruncationRule(eps=1e-12, relative=True))
        # Stack the same matrix twice: u_stack @ v_stack.T = 2a with rank 3.
        res = _round(
            np.hstack([t1.u, t1.u]),
            np.hstack([t1.v, t1.v]),
            TruncationRule(eps=1e-10, relative=True),
        )
        assert res.rank_before == 6
        assert res.rank_after == 3
        np.testing.assert_allclose(res.tile.to_dense(), 2 * a, atol=1e-7)

    def test_cancellation_to_zero(self):
        a = _lowrank_matrix(20, 20, 4, seed=6)
        t = _compress(a, TruncationRule(eps=1e-12, relative=True))
        res = _round(
            np.hstack([t.u, t.u]),
            np.hstack([t.v, -t.v]),
            TruncationRule(eps=1e-8),
        )
        assert res.rank_after == 0
        assert res.tile.rank == 0

    def test_growth_flag(self):
        a = _lowrank_matrix(30, 30, 2, seed=7)
        b = _lowrank_matrix(30, 30, 5, seed=8)
        ta = _compress(a, TruncationRule(eps=1e-10, relative=True))
        tb = _compress(b, TruncationRule(eps=1e-10, relative=True))
        res = _round(
            np.hstack([ta.u, tb.u]),
            np.hstack([ta.v, tb.v]),
            TruncationRule(eps=1e-10, relative=True),
            previous_rank=ta.rank,
        )
        assert res.rank_after == 7
        assert res.grew

    def test_no_growth_flag_when_shrinks(self):
        a = _lowrank_matrix(30, 30, 4, seed=9)
        t = _compress(a, TruncationRule(eps=1e-10, relative=True))
        res = _round(t.u, t.v, TruncationRule(eps=1e-10, relative=True),
                         previous_rank=4)
        assert not res.grew

    def test_empty_stack(self):
        res = _round(np.zeros((5, 0)), np.zeros((6, 0)), TruncationRule())
        assert res.rank_after == 0
        assert res.tile.shape == (5, 6)


@given(
    m=st.integers(5, 30),
    n=st.integers(5, 30),
    k=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_property_compression_roundtrip_error(m, n, k, seed):
    """Compression error never exceeds the (relative spectral) threshold."""
    a = _lowrank_matrix(m, n, min(k, m, n), seed=seed)
    eps = 1e-6
    t = _compress(a, TruncationRule(eps=eps, relative=True))
    norm = np.linalg.norm(a, 2)
    if norm > 0:
        assert np.linalg.norm(a - t.to_dense(), 2) <= eps * norm * 1.01


@given(
    m=st.integers(5, 25),
    k1=st.integers(1, 4),
    k2=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_property_recompression_is_sum(m, k1, k2, seed):
    """Rounding (U1|U2, V1|V2) approximates A1 + A2 within eps."""
    rng = np.random.default_rng(seed)
    u1, v1 = rng.standard_normal((m, k1)), rng.standard_normal((m, k1))
    u2, v2 = rng.standard_normal((m, k2)), rng.standard_normal((m, k2))
    target = u1 @ v1.T + u2 @ v2.T
    res = _round(
        np.hstack([u1, u2]), np.hstack([v1, v2]),
        TruncationRule(eps=1e-9, relative=True), previous_rank=k1,
    )
    np.testing.assert_allclose(res.tile.to_dense(), target, atol=1e-6 * (1 + np.abs(target).max()))
    # Rank minimality: never exceeds the stacked rank.
    assert res.rank_after <= k1 + k2
