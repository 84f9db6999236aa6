"""Solver-service suite: cache, database, server, loadgen, CLI.

The claims under test are the serving-layer ones:

* a factor identity is the full tuple (geometry, kernel θ, ε, band,
  rank cap) — perturb any piece and the cache treats it as a different
  factor; ε also fixes the factor's precision;
* a cache-warm identity **never refactorizes**, no matter how many
  concurrent requests race the miss (single-flight), and the hit-rate
  counters prove it;
* solves served through the concurrent, batched pipeline match the
  dense scipy reference to factorization accuracy;
* admission control rejects explicitly at the configured depth,
  deadline-lapsed requests are dropped (not batched), and every
  lifecycle transition feeds the obs counters.
"""

import threading

import numpy as np
import pytest

from repro import TLRSolver, obs, st_3d_exp_problem
from repro.statistics.problem import st_2d_exp_problem
from repro.__main__ import build_parser, main
from repro.core.solve import solve_many
from repro.linalg.batched import split_solution, stack_rhs
from repro.linalg import LowRankTile
from repro.linalg.precision import lowrank_dtype
from repro.service import (
    EVENTS,
    FactorCache,
    FactorKey,
    FactorRecipe,
    ServiceConfig,
    ServiceDatabase,
    SolverService,
    geometry_hash,
    percentiles,
    run_load,
)
from repro.utils.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    KernelError,
    QueueFullError,
    ServiceClosedError,
)


@pytest.fixture(scope="module")
def tiny_problem():
    """A 256-point problem (NT = 4): cheap enough to factorize repeatedly."""
    return st_3d_exp_problem(256, 64, seed=3)


def _recipe(problem, **kw):
    kw.setdefault("accuracy", 1e-6)
    kw.setdefault("band_size", 1)
    return FactorRecipe(problem=problem, **kw)


# ---------------------------------------------------------------------------
# precision identity
# ---------------------------------------------------------------------------
class TestPrecisionIdentity:
    """A factor's precision is a function of ε, which the key holds."""

    def test_adaptive_resolves_by_eps(self, tiny_problem):
        # the key holds ε, and ε resolves the off-band precision: single
        # above the fp32 floor (1e-7), double below it
        for eps, want in [(1e-4, np.float32), (1e-9, np.float64)]:
            key = FactorKey.from_problem(tiny_problem, accuracy=eps)
            assert lowrank_dtype(key.eps) == want

    def test_request_and_realized_sides_agree_end_to_end(self):
        """What a key's ε asks for is what its factor stores.

        The build births a tile of rank ≥ b/3 dense, so the problem is a
        2D one whose factor keeps low-rank tiles on both sides of the fp32
        floor (the 3D ``tiny_problem`` is all dense at ε = 1e-9).
        """
        problem = st_2d_exp_problem(512, 64, seed=3)
        for eps in (1e-6, 1e-4, 1e-9):
            recipe = _recipe(problem, accuracy=eps)
            matrix, report = recipe.build()
            lowrank = [
                t for t in matrix.tiles.values() if isinstance(t, LowRankTile)
            ]
            assert lowrank
            assert {t.dtype for t in lowrank} == {lowrank_dtype(recipe.key().eps)}
            pr = report.precision_report
            assert pr.demoted_tiles == (len(lowrank) if eps >= 1e-7 else 0)


# ---------------------------------------------------------------------------
# factor identity
# ---------------------------------------------------------------------------
class TestFactorKey:
    def test_same_inputs_same_key(self, tiny_problem):
        k1 = FactorKey.from_problem(tiny_problem, accuracy=1e-6, band_size=1)
        k2 = FactorKey.from_problem(tiny_problem, accuracy=1e-6, band_size=1)
        assert k1 == k2
        assert hash(k1) == hash(k2)
        assert k1.digest() == k2.digest()

    def test_every_field_is_identity(self, tiny_problem):
        base = FactorKey.from_problem(tiny_problem, accuracy=1e-6, band_size=1)
        assert base != FactorKey.from_problem(
            tiny_problem, accuracy=1e-5, band_size=1
        )
        assert base != FactorKey.from_problem(
            tiny_problem, accuracy=1e-6, band_size=2
        )
        # "auto" is part of the identity even when it tunes to the same int
        assert base != FactorKey.from_problem(
            tiny_problem, accuracy=1e-6, band_size="auto"
        )
        assert base != FactorKey.from_problem(
            tiny_problem, accuracy=1e-6, band_size=1, maxrank=16
        )

    def test_geometry_hash_sees_the_points(self, tiny_problem):
        other = st_3d_exp_problem(256, 64, seed=4)
        assert geometry_hash(tiny_problem) == geometry_hash(tiny_problem)
        assert geometry_hash(tiny_problem) != geometry_hash(other)

    def test_recipe_key_matches_solver_factor_key(self, tiny_problem):
        recipe = _recipe(tiny_problem)
        solver = TLRSolver.from_problem(
            tiny_problem, accuracy=1e-6, band_size=1
        )
        solver.factorize()
        assert solver.factor_key() == recipe.key()

    def test_factor_key_needs_the_problem(self, small_tlr):
        solver = TLRSolver(matrix=small_tlr)
        with pytest.raises(ConfigurationError):
            solver.factor_key()


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------
class TestFactorCache:
    def test_miss_then_build_then_hits(self, tiny_problem):
        cache = FactorCache()
        recipe = _recipe(tiny_problem)
        assert cache.get(recipe.key()) is None           # miss
        entry = cache.get_or_build(recipe)               # build
        assert cache.get_or_build(recipe) is entry       # hit
        stats = cache.stats()
        assert stats.factorizations == 1
        assert stats.misses == 2                         # explicit get + build
        assert stats.hits == 1
        assert stats.resident_entries == 1
        assert stats.resident_bytes == entry.nbytes > 0

    def test_lru_eviction_by_bytes(self, tiny_problem):
        matrix, report = _recipe(tiny_problem).build()
        nbytes = FactorCache.factor_nbytes(matrix)
        cache = FactorCache(max_bytes=2 * nbytes)
        keys = [
            FactorKey.from_problem(tiny_problem, accuracy=eps, band_size=1)
            for eps in (1e-4, 1e-5, 1e-6)
        ]
        cache.install(keys[0], matrix, report)
        cache.install(keys[1], matrix, report)
        assert cache.get(keys[0]) is not None   # k0 now most-recent, k1 LRU
        cache.install(keys[2], matrix, report)  # over budget -> evict k1
        assert cache.stats().evictions == 1
        assert cache.keys() == [keys[0], keys[2]]
        assert cache.stats().resident_bytes == 2 * nbytes

    def test_never_evicts_the_only_entry(self, tiny_problem):
        matrix, report = _recipe(tiny_problem).build()
        cache = FactorCache(max_bytes=1)        # smaller than any factor
        key = _recipe(tiny_problem).key()
        cache.install(key, matrix, report)
        assert cache.get(key) is not None       # oversized but resident
        assert cache.stats().evictions == 0

    def test_concurrent_misses_factorize_exactly_once(self, tiny_problem):
        cache = FactorCache()
        recipe = _recipe(tiny_problem)
        entries, n_threads = [], 6
        barrier = threading.Barrier(n_threads)

        def hit_it():
            barrier.wait()
            entries.append(cache.get_or_build(recipe))

        threads = [threading.Thread(target=hit_it) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(e) for e in entries}) == 1
        stats = cache.stats()
        assert stats.factorizations == 1    # single-flight
        assert stats.misses == 1            # losers re-counted as hits
        assert stats.hits == n_threads - 1
        assert stats.hit_rate == pytest.approx((n_threads - 1) / n_threads)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigurationError):
            FactorCache(max_bytes=0)


class TestWarmStart:
    def test_cold_build_checkpoints_then_miss_resumes(
        self, tiny_problem, tmp_path
    ):
        warm = tmp_path / "warm"
        recipe = _recipe(tiny_problem)
        cold = FactorCache(warm_dir=warm)
        cold_entry = cold.get_or_build(recipe)
        assert cold.stats().warm_starts == 0
        ckpt_dir = warm / recipe.key().digest()
        assert any(ckpt_dir.glob("ckpt-*.json"))

        # a new cache (fresh process, same warm tier) resumes, not rebuilds
        rehydrated = FactorCache(warm_dir=warm)
        entry = rehydrated.get_or_build(recipe)
        stats = rehydrated.stats()
        assert stats.warm_starts == 1
        assert stats.factorizations == 1
        for (i, j), tile in cold_entry.matrix.tiles.items():
            np.testing.assert_array_equal(
                tile.to_dense(), entry.matrix.tiles[i, j].to_dense()
            )


# ---------------------------------------------------------------------------
# the scheduler database
# ---------------------------------------------------------------------------
class _Req:
    def __init__(self, rid):
        self.id = rid


class TestServiceDatabase:
    def test_lifecycle_transitions_fire_handlers(self):
        db = ServiceDatabase(max_depth=4)
        seen = []
        for event in EVENTS:
            db.on(event, lambda e, r, d: seen.append((e, r.id)))
        req = _Req(1)
        assert db.admit(req)
        db.start(req)
        db.finish(req, "completed")
        assert seen == [("submitted", 1), ("started", 1), ("completed", 1)]
        assert db.depth() == 0 and db.executing() == 0
        assert db.outcome_counts() == {"completed": 1}
        assert db.recent() == [(1, "completed")]

    def test_admission_is_bounded_and_explicit(self):
        db = ServiceDatabase(max_depth=2)
        assert db.admit(_Req(1)) and db.admit(_Req(2))
        assert not db.admit(_Req(3))            # full -> rejected transition
        assert db.depth() == 2
        assert db.outcome_counts()["rejected"] == 1

    def test_unknown_event_and_outcome_raise(self):
        db = ServiceDatabase()
        with pytest.raises(KeyError):
            db.on("exploded", lambda *a: None)
        with pytest.raises(KeyError):
            db.finish(_Req(1), "exploded")


# ---------------------------------------------------------------------------
# multi-RHS marshaling
# ---------------------------------------------------------------------------
class TestMultiRhs:
    def test_stack_and_split_roundtrip(self, rng):
        cols = [rng.standard_normal(8), rng.standard_normal((8, 3)),
                rng.standard_normal(8)]
        stacked, widths = stack_rhs(cols)
        assert stacked.shape == (8, 5) and widths == [1, 3, 1]
        back = split_solution(stacked, widths, cols)
        assert back[0].shape == (8,) and back[1].shape == (8, 3)
        np.testing.assert_array_equal(back[1], stacked[:, 1:4])

    def test_stack_rejects_bad_input(self, rng):
        with pytest.raises(KernelError):
            stack_rhs([])
        with pytest.raises(KernelError):
            stack_rhs([rng.standard_normal((2, 2, 2))])

    def test_solve_many_matches_individual_solves(
        self, tiny_problem, rng
    ):
        matrix, _ = _recipe(tiny_problem).build()
        rhs_list = [rng.standard_normal(tiny_problem.n) for _ in range(4)]
        stacked = solve_many(matrix, rhs_list)
        dense = tiny_problem.dense()
        for rhs, x in zip(rhs_list, stacked):
            ref = np.linalg.solve(dense, rhs)
            assert np.linalg.norm(x - ref) / np.linalg.norm(ref) < 1e-5


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------
class TestSolverService:
    def test_concurrent_batched_solves_match_scipy(
        self, small_problem, small_dense, rng
    ):
        config = ServiceConfig(n_workers=2, max_batch=8)
        with SolverService(config) as svc:
            session = svc.session(small_problem, accuracy=1e-8, band_size=1)
            session.warm()
            rhs_list = [
                rng.standard_normal(small_problem.n) for _ in range(16)
            ]
            tickets = [session.submit(b) for b in rhs_list]
            results = [t.result(timeout=30) for t in tickets]
            stats = svc.stats()
        for rhs, x in zip(rhs_list, results):
            ref = np.linalg.solve(small_dense, rhs)
            assert np.linalg.norm(x - ref) / np.linalg.norm(ref) < 1e-6
        assert stats.completed == 16
        assert stats.max_batch_width > 1        # batching actually engaged
        assert stats.cache.factorizations == 1

    def test_cache_warm_identity_never_refactorizes(self, small_problem):
        with SolverService(ServiceConfig(n_workers=2)) as svc:
            s1 = svc.session(small_problem, accuracy=1e-6, band_size=1)
            s1.warm()
            # a second session on the same identity shares the factor
            s2 = svc.session(small_problem, accuracy=1e-6, band_size=1)
            for _ in range(3):
                s1.solve(np.ones(small_problem.n), timeout=30)
                s2.solve(np.ones(small_problem.n), timeout=30)
            stats = svc.stats().cache
        assert stats.factorizations == 1
        assert stats.misses == 1
        assert stats.hits >= 6                  # one per served batch
        assert stats.hit_rate >= 6 / 7

    def test_distinct_precision_identities_get_distinct_factors(
        self, tiny_problem
    ):
        """Two ε on either side of the fp32 floor: two identities, two
        factors, one single and one double."""
        with SolverService(ServiceConfig(n_workers=1)) as svc:
            strict = svc.session(tiny_problem, accuracy=1e-8, band_size=1)
            loose = svc.session(tiny_problem, accuracy=1e-4, band_size=1)
            assert strict.key != loose.key
            e_strict, e_loose = strict.warm(), loose.warm()
        assert e_strict is not e_loose
        assert e_strict.report.precision_report.demoted_tiles == 0
        pr = e_loose.report.precision_report
        assert pr.demoted_tiles == pr.lowrank_tiles > 0
        assert svc.stats().cache.factorizations == 2

    def test_backpressure_rejects_at_depth(self, small_problem):
        svc = SolverService(ServiceConfig(n_workers=1, max_queue_depth=2))
        session = svc.session(small_problem, accuracy=1e-6, band_size=1)
        # not started: submissions queue deterministically
        t1 = session.submit(np.ones(small_problem.n))
        t2 = session.submit(np.ones(small_problem.n))
        with pytest.raises(QueueFullError):
            session.submit(np.ones(small_problem.n))
        assert svc.stats().rejected == 1
        svc.stop()      # fails the queued pair with ServiceClosedError
        for t in (t1, t2):
            with pytest.raises(ServiceClosedError):
                t.result(timeout=5)

    def test_deadline_lapsed_requests_are_dropped(self, small_problem):
        svc = SolverService(ServiceConfig(n_workers=1))
        session = svc.session(small_problem, accuracy=1e-6, band_size=1)
        ticket = session.submit(
            np.ones(small_problem.n), deadline_s=-1.0   # already lapsed
        )
        live = session.submit(np.ones(small_problem.n))
        svc.start()
        with pytest.raises(DeadlineExceededError):
            ticket.result(timeout=30)
        live.result(timeout=30)                 # the live one still solves
        stats = svc.stats()
        svc.stop()
        assert stats.dropped == 1
        assert stats.completed == 1

    def test_non_finite_rhs_refused_at_submit(self, small_problem):
        """Raised by submit itself: no ticket, no queued work."""
        rhs = np.ones(small_problem.n)
        rhs[0] = np.nan
        with SolverService(ServiceConfig(n_workers=1)) as svc:
            session = svc.session(small_problem, accuracy=1e-6, band_size=1)
            with pytest.raises(ConfigurationError, match="finite"):
                session.submit(rhs)
            stats = svc.stats()
        assert stats.cache.factorizations == 0

    @pytest.mark.parametrize(
        "dtype, shape",
        [(complex, None), ("U3", None), (object, None), (float, (2, 1))],
        ids=["complex", "str", "object", "3-D"],
    )
    def test_bad_rhs_refused_at_submit(self, small_problem, dtype, shape):
        rhs = np.ones((small_problem.n,) + (shape or ()), dtype=dtype)
        with SolverService(ServiceConfig(n_workers=1)) as svc:
            session = svc.session(small_problem, accuracy=1e-6, band_size=1)
            with pytest.raises(ConfigurationError, match="rhs"):
                session.submit(rhs)
            stats = svc.stats()
        assert stats.cache.factorizations == 0

    def test_submit_after_stop_is_closed(self, small_problem):
        svc = SolverService(ServiceConfig(n_workers=1)).start()
        session = svc.session(small_problem, accuracy=1e-6, band_size=1)
        svc.stop()
        with pytest.raises(ServiceClosedError):
            session.submit(np.ones(small_problem.n))

    def test_register_solver_serves_without_service_factorization(
        self, small_problem, small_dense, rng
    ):
        solver = TLRSolver.from_problem(
            small_problem, accuracy=1e-8, band_size=1
        )
        solver.factorize(n_workers=2)
        with SolverService(ServiceConfig(n_workers=1)) as svc:
            session = svc.register_solver(solver)
            assert session.key == solver.factor_key()
            rhs = rng.standard_normal(small_problem.n)
            x = session.solve(rhs, timeout=30)
            stats = svc.stats().cache
        ref = np.linalg.solve(small_dense, rhs)
        assert np.linalg.norm(x - ref) / np.linalg.norm(ref) < 1e-6
        assert stats.factorizations == 0        # adopted, not rebuilt
        assert stats.installs == 1
        assert stats.hits == 1 and stats.misses == 0

    def test_register_solver_requires_factorized(self, small_problem):
        solver = TLRSolver.from_problem(
            small_problem, accuracy=1e-6, band_size=1
        )
        with pytest.raises(ConfigurationError):
            SolverService().register_solver(solver)

    def test_config_validation(self):
        for bad in (
            dict(n_workers=0), dict(max_queue_depth=0), dict(max_batch=0),
        ):
            with pytest.raises(ConfigurationError):
                ServiceConfig(**bad)


class TestObsInstrumentation:
    def test_lifecycle_counters_spans_and_gauges(self, small_problem, rng):
        with obs.observe() as run:
            with SolverService(ServiceConfig(n_workers=1, max_batch=8)) as svc:
                session = svc.session(
                    small_problem, accuracy=1e-6, band_size=1
                )
                session.warm()
                tickets = [
                    session.submit(rng.standard_normal(small_problem.n))
                    for _ in range(6)
                ]
                for t in tickets:
                    t.result(timeout=30)
        metrics = run.metrics
        assert metrics.counter("service_request_submitted").value == 6
        assert metrics.counter("service_request_completed").value == 6
        assert metrics.counter("service_cache_miss").value == 1
        assert metrics.counter("service_cache_hit").value >= 1
        assert metrics.gauge("service_queue_depth").value == 0

        names = [s.name for s in run.tracer.spans]
        assert "service_factorize" in names
        assert "service_batch" in names
        # one replayed full-lifetime span per completed request
        assert names.count("service_request") == 6


class TestPercentiles:
    def test_known_distribution(self):
        p50, p95, p99 = percentiles(list(range(1, 101)))
        assert p50 == pytest.approx(50.5)
        assert p95 == pytest.approx(95.05)
        assert p99 == pytest.approx(99.01)

    def test_empty_is_zeros(self):
        assert percentiles([]) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# loadgen
# ---------------------------------------------------------------------------
class TestLoadgen:
    def test_closed_loop_completes_quota(self, small_problem):
        with SolverService(ServiceConfig(n_workers=1, max_batch=8)) as svc:
            session = svc.session(small_problem, accuracy=1e-6, band_size=1)
            report = run_load(
                session, clients=4, requests_per_client=3, seed=1
            )
        assert report.completed == 12
        assert report.failed == 0 and report.dropped == 0
        assert report.factorizations == 1       # warmed outside the window
        assert len(report.latencies_s) == 12
        assert 0 < report.p50_ms <= report.p95_ms <= report.p99_ms
        assert report.throughput_rps > 0

    def test_sketch_tracks_exact_median(self, small_problem):
        """The streaming sketch sees every client latency, and its p50
        stays within one bucket's relative error of the exact median
        computed from the raw samples."""
        import numpy as np

        with SolverService(ServiceConfig(n_workers=1, max_batch=8)) as svc:
            session = svc.session(small_problem, accuracy=1e-6, band_size=1)
            report = run_load(
                session, clients=4, requests_per_client=5, seed=2
            )
        sk = report.sketch
        assert sk is not None
        assert sk.count == report.completed == len(report.latencies_s)
        exact_p50 = float(np.percentile(report.latencies_s, 50))
        # nearest-rank vs interpolated may differ by one order statistic;
        # bound against the bracketing samples around the exact median.
        ordered = sorted(report.latencies_s)
        lo = max(v for v in ordered if v <= exact_p50)
        hi = min(v for v in ordered if v >= exact_p50)
        assert lo * (1 - sk.rel_err) <= sk.quantile(0.5) <= hi * (1 + sk.rel_err)

    def test_client_latencies_stream_into_live_plane(self, small_problem):
        from repro.obs import LiveAggregator

        live = LiveAggregator()
        with SolverService(ServiceConfig(n_workers=1), live=live) as svc:
            session = svc.session(small_problem, accuracy=1e-6, band_size=1)
            report = run_load(
                session, clients=2, requests_per_client=3, seed=1
            )
        live.force_collect()
        snap = live.snapshot()
        assert snap["latency"]["client_latency_s"]["count"] == report.completed
        # the service side streamed too: submit/complete counters + the
        # registered providers
        assert snap["counters"]["service_request_completed"] == report.completed
        assert snap["providers"]["cache"]["factorizations"] == 1
        assert snap["providers"]["workers"]["n_workers"] == 1
        live.stop()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestServiceCLI:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.band == "auto"
        assert args.service_workers == 2
        assert args.max_queue == 64
        assert args.max_batch == 16

    def test_band_arg_validation(self):
        assert build_parser().parse_args(["serve", "--band", "3"]).band == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--band", "wide"])

    def test_serve_smoke(self, capsys):
        rc = main([
            "serve", "--n", "256", "--tile", "64", "--accuracy", "1e-6",
            "--band", "1", "--clients", "2", "--requests", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "factor resident" in out
        assert "p50 latency (ms)" in out
        assert "factorizations" in out

    def test_listen_port_out_of_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--listen", "127.0.0.1:99999"])
        assert exc.value.code == 2
        assert "0-65535" in capsys.readouterr().err

    def test_listen_on_a_held_port_fails_typed(self, capsys):
        import socket

        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            rc = main([
                "serve", "--n", "256", "--tile", "64", "--band", "1",
                "--listen", f"127.0.0.1:{port}",
            ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: cannot listen on 127.0.0.1:{port}:" in err

    def test_slo_it_cannot_evaluate_exits_2(self, capsys):
        assert main(["serve", "--slo", "error-rate=nan"]) == 2
        assert "error-rate" in capsys.readouterr().err

    def test_bench_service_smoke(self, capsys):
        rc = main([
            "bench-service", "--smoke", "--clients", "4", "--requests", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p50 ratio" in out
        assert "one-at-a-time" in out and "batched" in out
