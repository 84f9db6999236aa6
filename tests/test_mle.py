"""Unit tests for the MLE pipeline (Eq. 1)."""

import sys

import numpy as np
import pytest

from repro import TruncationRule, st_3d_exp_problem
from repro.matrix import BandTLRMatrix
from repro.core import (
    LikelihoodEvaluator,
    fit_mle,
    log_likelihood,
    tlr_cholesky,
)
from repro.core import mle
from repro.linalg import AutoBackend, DenseTile, LowRankTile, backends, tiles
from repro.statistics import CovarianceProblem, MaternParams
from repro.testing import reference_cholesky
from repro.utils import (
    ConfigurationError,
    NotPositiveDefiniteError,
    RuntimeSystemError,
)


def storage(ev):
    """The evaluator's recycled tile storage: its last factor's dense
    tile buffers, by coordinates."""
    return {
        ij: t.data for ij, t in ev._previous.tiles.items()
        if isinstance(t, DenseTile) and t.data.flags.c_contiguous
    }


def on_workers(monkeypatch, n):
    """Run the evaluator's factorizations on ``n`` workers of the core,
    whatever this host's cores and BLAS threads say."""
    monkeypatch.setattr(mle, "default_workers", lambda: n)


@pytest.fixture(scope="module")
def mle_problem():
    return st_3d_exp_problem(343, 49, seed=17)


@pytest.fixture(scope="module")
def mle_z(mle_problem):
    return mle_problem.sample_measurements(seed=99)


class TestLogLikelihood:
    def test_matches_dense_formula(self, mle_problem, mle_z):
        a = mle_problem.dense()
        m = BandTLRMatrix.from_problem(mle_problem, TruncationRule(eps=1e-10), 1)
        tlr_cholesky(m)
        ll = log_likelihood(m, mle_z)
        n = mle_problem.n
        sign, logdet = np.linalg.slogdet(a)
        quad = mle_z @ np.linalg.solve(a, mle_z)
        ref = -0.5 * (n * np.log(2 * np.pi) + logdet + quad)
        assert ll == pytest.approx(ref, abs=1e-4)

    def test_rejects_bad_shape(self, mle_problem):
        m = BandTLRMatrix.from_problem(mle_problem, TruncationRule(eps=1e-8), 1)
        tlr_cholesky(m)
        with pytest.raises(ConfigurationError):
            log_likelihood(m, np.zeros(10))


class TestLikelihoodEvaluator:
    def test_true_parameters_beat_wrong_ones(self, mle_problem, mle_z):
        ev = LikelihoodEvaluator(
            points=mle_problem.points,
            z=mle_z,
            tile_size=49,
            rule=TruncationRule(eps=1e-8),
        )
        ll_true = ev(1.0, 0.1)
        ll_wrong_len = ev(1.0, 0.5)
        ll_wrong_var = ev(10.0, 0.1)
        assert ll_true > ll_wrong_len
        assert ll_true > ll_wrong_var

    def test_invalid_parameters_give_minus_inf(self, mle_problem, mle_z):
        ev = LikelihoodEvaluator(
            points=mle_problem.points, z=mle_z, tile_size=49
        )
        assert ev(-1.0, 0.1) == float("-inf")

    def test_deferred_step_against_the_dense_oracle(self, monkeypatch):
        """b = 200, ε = 1e-4, band 2 — the size the default backend
        samples — on two workers of the core: each of the 10 off-band
        tiles is compressed once (those of columns >= 1 after their
        update, so never rounded again with a hint), and Eq. (1) holds to
        the accuracy threshold."""
        on_workers(monkeypatch, 2)
        hints = []
        compress = AutoBackend.compress

        def counting(self, a, rule, **kwargs):
            hints.append(kwargs.get("rank_hint"))
            return compress(self, a, rule, **kwargs)

        monkeypatch.setattr(AutoBackend, "compress", counting)
        problem = st_3d_exp_problem(1200, 200, seed=5)
        z = problem.sample_measurements(seed=6)
        ev = LikelihoodEvaluator(
            points=problem.points, z=z, tile_size=200,
            rule=TruncationRule(eps=1e-4), band_size=2,
            nugget=problem.nugget,
        )
        ll = ev(problem.params.variance, problem.params.correlation_length)
        a = problem.dense()
        _, logdet = np.linalg.slogdet(a)
        ref = -0.5 * (
            problem.n * np.log(2 * np.pi) + logdet + z @ np.linalg.solve(a, z)
        )
        assert abs(ll - ref) <= 1e-4 * abs(ref)
        assert hints == [None] * 10

    def test_same_theta_twice_is_bitwise_the_same(self, monkeypatch):
        """Step 1 decides each tile's format after its compression, when
        the compression is paid (rank ≥ ⌈b/3⌉ alone); its factor's map
        also charges the compression, so step 2 compresses exactly the
        tiles the map leaves low-rank — fewer than step 1 kept.  Then the
        map is settled: at the same θ step 3 gives step 2's bits and
        compressions (two workers of the core)."""
        on_workers(monkeypatch, 2)
        calls = []
        compress = AutoBackend.compress

        def counting(self, a, rule, **kwargs):
            calls.append(a.shape)
            return compress(self, a, rule, **kwargs)

        monkeypatch.setattr(AutoBackend, "compress", counting)
        problem = st_3d_exp_problem(1200, 100, seed=5)
        ev = LikelihoodEvaluator(
            points=problem.points, z=problem.sample_measurements(seed=6),
            tile_size=100, rule=TruncationRule(eps=1e-4),
            nugget=problem.nugget,
        )
        ev(1.0, 0.1)
        step1 = len(calls)
        assert step1 == 66  # NT = 12 at band 1: every off-band tile
        born_lowrank = 78 - len(storage(ev))  # the rest are dense buffers
        kept_lowrank = 66 - int(np.tril(ev._previous.dense_map(), -1).sum())
        assert 0 < kept_lowrank < born_lowrank
        second = ev(1.0, 0.1)
        step2 = len(calls) - step1
        assert step2 == kept_lowrank
        third = ev(1.0, 0.1)
        assert third == second
        assert len(calls) - step1 - step2 == step2

    @pytest.mark.parametrize(
        "spoil,match",
        [
            (lambda p, z: (p, np.where(np.arange(z.size) == 3, np.nan, z)),
             "finite"),
            (lambda p, z: (p, np.where(np.arange(z.size) == 5, np.inf, z)),
             "finite"),
            (lambda p, z: (p, z[:-1]), "length-343"),
            (lambda p, z: (np.where(p == p[0, 0], np.nan, p), z), "finite"),
            (lambda p, z: (p[:, 0], z), "2-D"),
        ],
        ids=["nan-in-z", "inf-in-z", "short-z", "nan-point", "flat-points"],
    )
    def test_bad_inputs_are_refused_at_construction(
        self, mle_problem, mle_z, spoil, match
    ):
        points, z = spoil(mle_problem.points, mle_z)
        with pytest.raises(ConfigurationError, match=match):
            LikelihoodEvaluator(points=points, z=z, tile_size=49)

    def test_evaluations_logged(self, mle_problem, mle_z):
        ev = LikelihoodEvaluator(
            points=mle_problem.points, z=mle_z, tile_size=49
        )
        ev(1.0, 0.1)
        assert len(ev.evaluations) == 1


#: layout -> (ε, band): fp32 low-rank tiles, fp64 ones, every tile dense.
LAYOUTS = {"band2-fp32": (1e-4, 2), "band2-fp64": (1e-8, 2), "dense": (1e-4, None)}


class TestOnTheCore:
    """The evaluator factorizes on the execution core, at the worker count
    :func:`~repro.runtime.workpool.default_workers` gives."""

    @pytest.fixture(scope="class")
    def problem(self):
        return st_3d_exp_problem(800, 100, seed=3)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_loglik_bitwise_at_any_worker_count(
        self, problem, monkeypatch, layout
    ):
        """Three steps (formats decided by the first, read by the next;
        the second and third generated into the storage of the step
        before and hinted by its ranks): bitwise the same at 1, 2 and 3
        workers and on the reference loops, the same pipeline by hand in
        fresh memory."""
        eps, band = LAYOUTS[layout]
        band = band or problem.ntiles
        z = problem.sample_measurements(seed=4)
        thetas = [(1.0, 0.1), (1.2, 0.12), (0.9, 0.11)]
        got = {}
        for n in (1, 2, 3):
            on_workers(monkeypatch, n)
            ev = LikelihoodEvaluator(
                points=problem.points, z=z, tile_size=100,
                rule=TruncationRule(eps=eps), band_size=band,
                nugget=problem.nugget,
            )
            got[n] = [ev(*theta) for theta in thetas]
        loops, previous = [], None
        for variance, length in thetas:
            candidate = CovarianceProblem(
                points=problem.points,
                params=MaternParams(variance, length, 0.5),
                tile_size=100, nugget=problem.nugget,
            )
            m = BandTLRMatrix.from_problem(
                candidate, TruncationRule(eps=eps), band,
                defer=True if previous is None else previous,
            )
            reference_cholesky(m)
            previous = m
            loops.append(log_likelihood(m, z))
        assert np.isfinite(loops).all()
        assert got[1] == got[2] == got[3] == loops

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_a_step_generates_into_the_last_factor(
        self, problem, monkeypatch, layout
    ):
        """Every dense tile of a factor is the storage of the next step's
        tile at its coordinates: the same buffer, generated into again (a
        tile the priced map births dense adds its own)."""
        on_workers(monkeypatch, 2)
        eps, band = LAYOUTS[layout]
        ev = LikelihoodEvaluator(
            points=problem.points, z=problem.sample_measurements(seed=4),
            tile_size=100, rule=TruncationRule(eps=eps),
            band_size=band or problem.ntiles, nugget=problem.nugget,
        )
        ev(1.0, 0.1)
        before = storage(ev)
        assert len(before) >= 2 * problem.ntiles - 1  # the band at least
        ev(1.0, 0.102)
        after = storage(ev)
        assert after.keys() >= before.keys()
        assert all(after[ij] is buf for ij, buf in before.items())

    def test_priced_map_is_bitwise_at_any_worker_count(self, monkeypatch):
        """NT = 12, ε = 1e-4: step 1's map, which charges the compression,
        births dense some tiles step 1 kept low-rank and compresses the
        others.  Three steps are bitwise the same at 1, 2 and 3 workers,
        and step 1 is the threshold's: the reference loops with
        ``born_dense`` reduced to rank ≥ ⌈b/3⌉ give its bits."""
        problem = st_3d_exp_problem(1200, 100, seed=5)
        z = problem.sample_measurements(seed=6)
        rule = TruncationRule(eps=1e-4)
        thetas = [(1.0, 0.1), (1.2, 0.12), (0.9, 0.11)]
        got = {}
        for n in (1, 2, 3):
            on_workers(monkeypatch, n)
            ev = LikelihoodEvaluator(
                points=problem.points, z=z, tile_size=100, rule=rule,
                nugget=problem.nugget,
            )
            got[n] = [ev(*thetas[0])]
            born_lowrank = 78 - len(storage(ev))  # the rest are dense
            priced_lowrank = 66 - int(
                np.tril(ev._previous.dense_map(), -1).sum()
            )
            assert 0 < priced_lowrank < born_lowrank
            got[n] += [ev(*theta) for theta in thetas[1:]]
        assert got[1] == got[2] == got[3]

        monkeypatch.setattr(
            tiles, "born_dense", lambda rank, shape, **_: 3 * rank >= min(shape)
        )
        m = BandTLRMatrix.from_problem(
            CovarianceProblem(
                points=problem.points, params=MaternParams(1.0, 0.1, 0.5),
                tile_size=100, nugget=problem.nugget,
            ),
            rule, 1, defer=True,
        )
        reference_cholesky(m)
        assert log_likelihood(m, z) == got[1][0]

    def test_births_are_hinted_by_the_last_factor(self, monkeypatch):
        """NT = 16, b = 128, ε = 1e-4, band 1: step 2 compresses each
        tile the map keeps low-rank with its step-1 rank as ``rank_hint``,
        and its hinted first block certifies at once: one QR per
        compression, where step 1's unhinted ones took more."""
        on_workers(monkeypatch, 2)
        births, hints, qrs = {}, [], [0]
        born, compress, qr = (
            tiles.PendingTile.born, AutoBackend.compress, backends._econ_qr
        )

        def born_spy(self, final, compress_block):
            if not self.dense:
                births[self.i, self.j] = self.hint
            return born(self, final, compress_block)

        def compress_spy(self, a, rule, **kwargs):
            hints.append(kwargs.get("rank_hint"))
            return compress(self, a, rule, **kwargs)

        def qr_spy(a):
            qrs[0] += 1
            return qr(a)

        monkeypatch.setattr(tiles.PendingTile, "born", born_spy)
        monkeypatch.setattr(AutoBackend, "compress", compress_spy)
        monkeypatch.setattr(backends, "_econ_qr", qr_spy)
        problem = st_3d_exp_problem(16 * 128, 128, seed=5)
        ev = LikelihoodEvaluator(
            points=problem.points, z=problem.sample_measurements(seed=6),
            tile_size=128, rule=TruncationRule(eps=1e-4),
            nugget=problem.nugget,
        )
        ev(1.0, 0.1)
        assert set(births.values()) == {None} and set(hints) == {None}
        step1 = (len(hints), qrs[0])
        ranks = {
            ij: t.rank for ij, t in ev._previous.tiles.items()
            if isinstance(t, LowRankTile)
        }
        dense_map = ev._previous.dense_map()
        births.clear(), hints.clear()
        qrs[0] = 0
        ev(1.0, 0.102)
        kept = {ij: r for ij, r in ranks.items() if not dense_map[ij]}
        assert len(kept) > 10 and births == kept
        assert sorted(hints) == sorted(kept.values())
        assert qrs[0] == len(hints) and step1[1] > step1[0]

    def test_interleaved_evaluators_give_what_each_gives_alone(
        self, problem, monkeypatch
    ):
        """Two evaluators on different geometries, called in turn on two
        workers: each step is bitwise the step the evaluator takes alone,
        so no recycled buffer is ever shared with a live factor (or
        handed to a tile of another shape: the second has a ragged last
        tile).  Three workers on a short switch interval stress the
        generation that now runs inside the tasks."""
        on_workers(monkeypatch, 3)
        other = st_3d_exp_problem(650, 100, seed=8)
        thetas = [(1.0, 0.1), (1.2, 0.12), (0.9, 0.11)]

        def evaluators():
            return [
                LikelihoodEvaluator(
                    points=p.points, z=p.sample_measurements(seed=4),
                    tile_size=100, rule=TruncationRule(eps=eps),
                    band_size=band or p.ntiles, nugget=p.nugget,
                )
                for p, (eps, band) in (
                    (problem, LAYOUTS["dense"]), (other, LAYOUTS["band2-fp64"])
                )
            ]

        alone = [[ev(*theta) for theta in thetas] for ev in evaluators()]
        pair = evaluators()
        together = [[], []]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for theta in thetas:
                for ev, got in zip(pair, together):
                    got.append(ev(*theta))
        finally:
            sys.setswitchinterval(interval)
        assert np.isfinite(alone).all()
        assert together == alone

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_not_spd_candidate_scores_minus_inf(self, monkeypatch, n_workers):
        """ℓ = 1e6 without a nugget is numerically singular: POTRF fails
        on some task, and the step is −inf on any worker count.  It leaves
        no factor, so the next step assembles as a first one."""
        on_workers(monkeypatch, n_workers)
        problem = st_3d_exp_problem(800, 100, seed=1)
        ev = LikelihoodEvaluator(
            points=problem.points, z=problem.sample_measurements(seed=2),
            tile_size=100, rule=TruncationRule(eps=1e-4), nugget=0.0,
        )
        assert ev(1.0, 1e6) == float("-inf")
        assert ev.evaluations == []
        first = ev(1.0, 0.1)
        assert np.isfinite(first)
        assert ev(1.0, 1e6) == float("-inf") and ev._previous is None
        assert ev(1.0, 0.1) == first

    @pytest.mark.parametrize("nugget", [float("nan"), float("inf")])
    def test_non_finite_nugget_is_refused(self, nugget):
        """A NaN nugget used to be added as 0 (a finite log-likelihood)
        and an infinite one scored −inf: both are configuration errors."""
        problem = st_3d_exp_problem(400, 100, seed=1)
        ev = LikelihoodEvaluator(
            points=problem.points, z=problem.sample_measurements(seed=2),
            tile_size=100, rule=TruncationRule(eps=1e-4), nugget=nugget,
        )
        with pytest.raises(ConfigurationError, match="nugget"):
            ev(1.0, 0.1)

    def test_not_spd_reaches_the_caller_as_itself(self):
        """The same candidate factorized on two workers: the POTRF failure
        is re-raised as itself, the worker failure chained to it."""
        problem = st_3d_exp_problem(800, 100, seed=1)
        candidate = CovarianceProblem(
            points=problem.points, params=MaternParams(1.0, 1e6, 0.5),
            tile_size=100, nugget=0.0,
        )
        m = BandTLRMatrix.from_problem(
            candidate, TruncationRule(eps=1e-4), 1, defer=True
        )
        with pytest.raises(NotPositiveDefiniteError) as info:
            tlr_cholesky(m, n_workers=2)
        worker = info.value.__cause__
        assert type(worker) is RuntimeSystemError
        assert type(worker.__cause__) is NotPositiveDefiniteError
        assert info.value.tile_index == worker.__cause__.tile_index


class TestFitMle:
    @pytest.mark.slow
    def test_recovers_parameters_roughly(self, mle_problem, mle_z):
        """With n=343 the MLE should land in the right neighbourhood of
        (theta1, theta2) = (1, 0.1)."""
        ev = LikelihoodEvaluator(
            points=mle_problem.points,
            z=mle_z,
            tile_size=49,
            rule=TruncationRule(eps=1e-6),
        )
        res = fit_mle(ev, initial=(0.5, 0.05), max_iterations=60)
        assert 0.3 < res.variance < 3.0
        assert 0.03 < res.correlation_length < 0.4
        assert res.n_evaluations > 5

    def test_fit_matches_the_dense_oracle_optimum(self):
        """b = 100, ε = 1e-4, band 1: with some tiles born dense and the
        rest compressed, Nelder-Mead lands where it lands on the dense
        likelihood (the all-dense layout, exact to roundoff) — the
        optimum within 1e-4 relative, each parameter within 1 %."""
        problem = st_3d_exp_problem(1200, 100, seed=5)
        z = problem.sample_measurements(seed=6)
        common = dict(points=problem.points, z=z, tile_size=100,
                      nugget=problem.nugget)
        tlr = LikelihoodEvaluator(rule=TruncationRule(eps=1e-4), **common)
        dense = LikelihoodEvaluator(band_size=problem.ntiles, **common)
        got, want = (
            fit_mle(ev, initial=(0.5, 0.05), max_iterations=80)
            for ev in (tlr, dense)
        )
        assert 0 < np.tril(tlr._previous.dense_map(), -1).sum() < 66  # NT = 12
        assert got.log_likelihood == pytest.approx(want.log_likelihood, rel=1e-4)
        for a, b in ((got.variance, want.variance),
                     (got.correlation_length, want.correlation_length)):
            assert abs(np.log(a / b)) <= 1e-2

    def test_rejects_bad_initial(self, mle_problem, mle_z):
        ev = LikelihoodEvaluator(points=mle_problem.points, z=mle_z, tile_size=49)
        with pytest.raises(ConfigurationError):
            fit_mle(ev, initial=(0.0, 0.1))
