"""Unit tests for the same-shape kernel batching layer.

The invariant throughout: a batched factorization is *bitwise identical*
to an unbatched one — same factor, same flop totals, for every worker
count.  Only the ``matmul`` classes are stacked (one ``gemm`` per slice);
the triangular solves always run per tile, because a multi-RHS ``trtrs``
is not bitwise the per-tile solve.  The cross-executor differential test
lives in ``tests/test_executor.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TruncationRule, st_3d_exp_problem
from repro.core import tlr_cholesky
from repro.linalg import (
    BatchItem,
    BatchPlanner,
    DenseTile,
    LowRankTile,
    run_batch,
)
from repro.matrix import BandTLRMatrix
from repro.utils import ConfigurationError, KernelError


@pytest.fixture(scope="module")
def problem():
    return st_3d_exp_problem(800, 100, seed=3)


@pytest.fixture(scope="module")
def rule():
    return TruncationRule(eps=1e-4)


def build(problem, rule, precision=None, band=2):
    return BandTLRMatrix.from_problem(
        problem, rule, band, backend="auto", precision=precision
    )


def factors_equal(m1, m2):
    """Bitwise tile-by-tile equality of two factorized matrices."""
    if m1.ntiles != m2.ntiles:
        return False
    for i in range(m1.ntiles):
        for j in range(i + 1):
            t1, t2 = m1.tile(i, j), m2.tile(i, j)
            if isinstance(t1, DenseTile) != isinstance(t2, DenseTile):
                return False
            if isinstance(t1, DenseTile):
                if not np.array_equal(t1.data, t2.data):
                    return False
            elif not (
                np.array_equal(t1.u, t2.u) and np.array_equal(t1.v, t2.v)
            ):
                return False
    return True


class TestPlanner:
    def _lr_item(self, ref, m=40, k=4, seed=0):
        rng = np.random.default_rng(seed)
        a = LowRankTile(
            rng.standard_normal((m, k)), rng.standard_normal((m, k))
        )
        c = DenseTile(rng.standard_normal((m, m)))
        return BatchItem(ref, "syrk", (a, c))

    def test_same_shape_items_grouped(self):
        planner = BatchPlanner()
        items = [self._lr_item(i, seed=i) for i in range(5)]
        groups = planner.partition(items)
        assert len(groups) == 1 and len(groups[0]) == 5

    def test_mixed_ranks_split(self):
        planner = BatchPlanner()
        items = [self._lr_item(0, k=3), self._lr_item(1, k=5)]
        groups = planner.partition(items)
        assert all(len(g) == 1 for g in groups)

    def test_potrf_never_batched(self):
        planner = BatchPlanner()
        c = DenseTile(np.eye(8))
        items = [BatchItem(i, "potrf", (c,)) for i in range(4)]
        assert all(len(g) == 1 for g in planner.partition(items))

    def test_lowrank_gemm_destination_runs_solo(self):
        rng = np.random.default_rng(7)
        planner = BatchPlanner()
        a = LowRankTile(rng.standard_normal((20, 2)), rng.standard_normal((20, 2)))
        c = LowRankTile(rng.standard_normal((20, 2)), rng.standard_normal((20, 2)))
        item = BatchItem(0, "gemm", (a, a, c))
        assert planner.key(item) is None

    def test_max_batch_chunks(self):
        planner = BatchPlanner(max_batch=4)
        items = [self._lr_item(i, seed=i) for i in range(10)]
        groups = planner.partition(items)
        assert [len(g) for g in groups] == [4, 4, 2]

    def test_copy_bytes_cap_dissolves_dense_buckets(self):
        rng = np.random.default_rng(9)
        small = BatchPlanner(max_copy_bytes=100)
        a = DenseTile(rng.standard_normal((40, 40)))
        c = DenseTile(rng.standard_normal((40, 40)))
        items = [BatchItem(i, "syrk", (a, c)) for i in range(4)]
        assert all(len(g) == 1 for g in small.partition(items))
        big = BatchPlanner(max_copy_bytes=1 << 20)
        assert [len(g) for g in big.partition(items)] == [4]

    def test_rejects_bad_bounds(self):
        with pytest.raises(KernelError):
            BatchPlanner(min_batch=1)
        with pytest.raises(KernelError):
            BatchPlanner(min_batch=4, max_batch=2)


class TestStackedKernelsMatchSolo:
    """Each stacked formulation is bitwise the per-tile kernel."""

    @staticmethod
    def _run_both(make_items, rule):
        solo_items = make_items()
        batch_items = make_items()
        for item in solo_items:
            run_batch([item], rule)
        planner = BatchPlanner(max_copy_bytes=1 << 30)
        groups = planner.partition(batch_items)
        assert any(len(g) > 1 for g in groups)
        outs = {}
        for group in groups:
            for res in run_batch(group, rule):
                outs[res.ref] = res.out
        return solo_items, batch_items, outs

    def test_syrk_lr(self, rule):
        def make():
            rng = np.random.default_rng(11)
            items = []
            for i in range(4):
                a = LowRankTile(
                    rng.standard_normal((32, 3)), rng.standard_normal((32, 3))
                )
                c = DenseTile(rng.standard_normal((32, 32)))
                items.append(BatchItem(i, "syrk", (a, c)))
            return items

        solo, batched, _ = self._run_both(make, rule)
        for s, b in zip(solo, batched):
            np.testing.assert_array_equal(s.tiles[1].data, b.tiles[1].data)

    def test_trsm_never_batched(self):
        """A stacked ``trtrs`` is not bitwise the per-tile solve (BLAS
        blocks TRSM over the right-hand-side columns), so panel TRSMs
        sharing one ``L`` tile still run solo — dense and low-rank."""
        rng = np.random.default_rng(12)
        l_tile = DenseTile(
            np.tril(rng.standard_normal((32, 32))) + 32 * np.eye(32)
        )
        items = [
            BatchItem(i, "trsm", (l_tile, c))
            for i, c in enumerate([
                LowRankTile(
                    rng.standard_normal((32, 3)), rng.standard_normal((32, 3))
                ),
                LowRankTile(
                    rng.standard_normal((32, 3)), rng.standard_normal((32, 3))
                ),
                DenseTile(rng.standard_normal((32, 32))),
                DenseTile(rng.standard_normal((32, 32))),
            ])
        ]
        planner = BatchPlanner(max_copy_bytes=1 << 30)
        assert all(planner.key(item) is None for item in items)
        assert all(len(g) == 1 for g in planner.partition(items))

    def test_gemm_dense_lrlr(self, rule):
        def make():
            rng = np.random.default_rng(13)
            items = []
            for i in range(3):
                a = LowRankTile(
                    rng.standard_normal((32, 2)), rng.standard_normal((32, 2))
                )
                b = LowRankTile(
                    rng.standard_normal((32, 2)), rng.standard_normal((32, 2))
                )
                c = DenseTile(rng.standard_normal((32, 32)))
                items.append(BatchItem(i, "gemm", (a, b, c)))
            return items

        solo, batched, _ = self._run_both(make, rule)
        for s, b in zip(solo, batched):
            np.testing.assert_array_equal(s.tiles[2].data, b.tiles[2].data)

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(min_value=8, max_value=48),
        k=st.integers(min_value=1, max_value=6),
        count=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_syrk_lr_property(self, m, k, count, seed):
        rule = TruncationRule(eps=1e-6)

        def make():
            rng = np.random.default_rng(seed)
            items = []
            for i in range(count):
                a = LowRankTile(
                    rng.standard_normal((m, k)), rng.standard_normal((m, k))
                )
                c = DenseTile(rng.standard_normal((m, m)))
                items.append(BatchItem(i, "syrk", (a, c)))
            return items

        solo = make()
        for item in solo:
            run_batch([item], rule)
        batched = make()
        (group,) = BatchPlanner(max_copy_bytes=1 << 30).partition(batched)
        run_batch(group, rule)
        for s, b in zip(solo, batched):
            np.testing.assert_array_equal(s.tiles[1].data, b.tiles[1].data)


class TestFactorizationBitwise:
    @pytest.mark.parametrize("precision", [None, "adaptive"])
    def test_sequential_batched_matches_unbatched(
        self, problem, rule, precision
    ):
        m1 = build(problem, rule, precision)
        r1 = tlr_cholesky(
            m1, executor="sequential", batch=True, precision=precision
        )
        m2 = build(problem, rule, precision)
        r2 = tlr_cholesky(m2, batch=False, precision=precision)
        assert factors_equal(m1, m2)
        assert r1.counter.total == r2.counter.total
        assert r1.rank_growth_events == r2.rank_growth_events
        assert r1.max_rank_seen == r2.max_rank_seen

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_parallel_batched_matches_sequential(
        self, problem, rule, n_workers
    ):
        m1 = build(problem, rule, "adaptive")
        tlr_cholesky(m1, batch=False, precision="adaptive")
        m2 = build(problem, rule, "adaptive")
        tlr_cholesky(
            m2, batch=True, precision="adaptive", n_workers=n_workers
        )
        assert factors_equal(m1, m2)

    def test_processes_executor_rejects_batch(self, problem, rule):
        m = build(problem, rule)
        with pytest.raises(ConfigurationError):
            tlr_cholesky(m, batch=True, executor="processes", n_ranks=2)

    def test_flop_attribution_preserved(self, problem, rule):
        m1 = build(problem, rule)
        r1 = tlr_cholesky(m1, executor="sequential", batch=True)
        m2 = build(problem, rule)
        r2 = tlr_cholesky(m2)
        assert r1.counter.per_class == r2.counter.per_class
        assert r1.counter.per_class_count == r2.counter.per_class_count
