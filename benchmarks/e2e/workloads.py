"""The benchmark's workloads: set-up, timed loop, checks and traced pass.

Imported by ``run.py`` only after the BLAS thread pin is in the
environment.  Every workload object is built once per process (its
constructor is the set-up, warm-up included) and offers

``op()``           one timed operation; returns its duration in seconds;
``run(seconds)``   the untraced timed loop: operations until the time is
                   up, at least two; returns their durations in seconds;
``best_ms(s)``     ``op_best_ms`` of those durations;
``check()``        the output checks that need an oracle, run after the
                   peak RSS was sampled;
``traced(tracer)`` a fixed number of operations, first untraced and then
                   under the tracer; returns the per-layer metrics only
                   this workload can fill in;
``close()``        stops whatever the set-up started.

``failed`` counts operations that raised, returned a non-finite value or
failed a check.

The seed draws what the application draws again and again over one
geometry (``numpy.random.default_rng(seed)``): the measurement vector, the
right-hand-side pool and the correlation lengths, each within 1 % of its
nominal value, so every seed gives another covariance matrix of the same
structure.  The point set is part of a
workload's size, like N and the tile size, and comes from
``st_3d_exp_problem(seed=GEOMETRY_SEED)``: the points decide every rank,
the tuner's band and each kernel's shape, so two point sets are two
workloads (ten seeds moved the median operation by 3-5 % on the MLE and
factorization workloads and by 16 % on the service ones, where the tuned
band flips, against under 1 % from run to run; see README.md).
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import deque
from contextlib import nullcontext

import numpy as np
import scipy.linalg as sla

from repro import TruncationRule, st_3d_exp_problem
from repro.core import factorize
from repro.core.mle import LikelihoodEvaluator
from repro.core.solve import solve_spd
from repro.linalg.backends import get_backend
from repro.linalg.tiles import DenseTile
from repro.matrix.tlr_matrix import BandTLRMatrix
from repro.runtime.graph import build_cholesky_graph
from repro.service import FactorCache, FactorRecipe, ServiceConfig, SolverService
from repro.statistics.matern import MaternParams
from repro.statistics.problem import CovarianceProblem

TILE = 200
GEOMETRY_SEED = 2021
TOY_TILE, TOY_NT = 128, 4


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds() -> float:
    """Busy core-seconds so far: this process and its waited-for children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def timed_loop(op, seconds: float) -> list[float]:
    """Call ``op()`` (which returns its own duration) until the time is up."""
    samples: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < 2 or time.perf_counter() < deadline:
        samples.append(op())
    return samples


def geometry(spec: dict, toy: bool) -> CovarianceProblem:
    """The workload's point set; the toy size keeps the code path, not the work."""
    nt, b = (TOY_NT, TOY_TILE) if toy else (spec["nt"], TILE)
    return st_3d_exp_problem(nt * b, b, seed=GEOMETRY_SEED)


def draw_length(rng, nominal: float = 0.1) -> float:
    """A correlation length within 1 % above ``nominal``.

    Enough to change every matrix entry; too little to move a rank
    distribution or the tuned band (measured over 0.096-0.104: band 6
    throughout, factor bytes within 0.5 %).
    """
    return nominal * (1.0 + 0.01 * rng.random())


def with_length(problem: CovarianceProblem, ell: float) -> CovarianceProblem:
    """The same points under correlation length ``ell``: a new factor identity."""
    return CovarianceProblem(
        points=problem.points,
        params=MaternParams(
            variance=1.0, correlation_length=ell, smoothness=0.5
        ),
        tile_size=problem.tile_size,
        nugget=problem.nugget,
    )


def dense_loglik(problem: CovarianceProblem, z: np.ndarray) -> float:
    """Eq. (1) through a dense LAPACK Cholesky: the oracle of the MLE steps.

    Filled tile by tile, lower triangle only: at N=4800 that takes a third
    of the time of ``problem.dense()``.
    """
    n = problem.n
    cov = np.zeros((n, n))
    for i in range(problem.ntiles):
        for j in range(i + 1):
            cov[problem.tile_rows(i), problem.tile_rows(j)] = problem.tile(i, j)
    chol, _ = sla.cho_factor(cov, lower=True, overwrite_a=True, check_finite=False)
    y = sla.solve_triangular(chol, z, lower=True, check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (n * float(np.log(2.0 * np.pi)) + logdet + float(y @ y))


def same_factor(a: BandTLRMatrix, b: BandTLRMatrix) -> bool:
    """Bitwise equality of two factors, tile by tile."""
    for ij, ta in a.tiles.items():
        tb = b.tiles[ij]
        if type(ta) is not type(tb):
            return False
        if isinstance(ta, DenseTile):
            if not np.array_equal(ta.data, tb.data):
                return False
        elif not (np.array_equal(ta.u, tb.u) and np.array_equal(ta.v, tb.v)):
            return False
    return True


def close_to(x: np.ndarray, ref: np.ndarray) -> bool:
    """A served solution against ``solve_spd`` on the same factor.

    A request served alone is that very call; one served in a stacked
    batch differs by the roundoff of GEMM column blocking.
    """
    return bool(np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref))


class Workload:
    """What ``run.py`` relies on beyond ``traced``; ``op()`` is one operation."""

    workers = 1  # busy threads or processes, for the nproc rule
    failed = 0
    rel_err = 0.0  # of the log-likelihood against its oracle, where there is one

    #: Operations per block of :meth:`best_ms`.
    BLOCK = 1

    def run(self, seconds: float) -> list[float]:
        return timed_loop(self.op, seconds)

    def best_ms(self, samples: list[float]) -> float:
        """``op_best_ms``: the lowest median among blocks of ``BLOCK`` operations.

        Whatever else runs on this shared two-core host only ever adds time,
        for seconds at a stretch: under a neighbour process that copies
        memory in bursts a two-worker factorization takes 0.93 s or 1.30 s,
        and a run's plain median reads whichever state held longer (it
        spread by 19-39 % between identical runs, the best block by under
        2 %).  A slowdown of the program is in every block.  ``BLOCK`` is 1
        unless the operations of a run differ by design.
        """
        ms = np.asarray(samples).reshape(-1, self.BLOCK) * 1e3
        return float(np.median(ms, axis=1).min())

    def check(self) -> None:
        """Output checks that need an oracle; nothing by default."""

    def close(self) -> None:
        """Stop whatever the set-up started; nothing by default."""


# ----------------------------------------------------------------------
# mle_lr, mle_tight, mle_dense
# ----------------------------------------------------------------------
class Mle(Workload):
    """One operation is one likelihood evaluation: assemble, factorize, Eq. (1)."""

    def __init__(self, spec: dict, seed: int, toy: bool) -> None:
        rng = np.random.default_rng(seed)
        self.problem = geometry(spec, toy)
        self.z = rng.standard_normal(self.problem.n)
        self.length = draw_length(rng)
        # band=None is the fully dense layout; its oracle agrees to roundoff
        band = spec["band"] or self.problem.ntiles
        self.tolerance = spec["eps"] if spec["band"] else 1e-12
        self.evaluator = LikelihoodEvaluator(
            points=self.problem.points,
            z=self.z,
            tile_size=self.problem.tile_size,
            rule=TruncationRule(eps=spec["eps"]),
            band_size=band,
            nugget=self.problem.nugget,
        )
        self.observe_overhead = spec.get("observe_overhead", False)
        self.steps = 0
        self.last = (0.0, 0.0)
        self.op()  # warm-up

    def op(self) -> float:
        # no two steps see the same correlation length
        ell = self.length * (1.0 + 0.01 * self.steps)
        self.steps += 1
        start = time.perf_counter()
        loglik = self.evaluator(1.0, ell)
        elapsed = time.perf_counter() - start
        if not np.isfinite(loglik):
            self.failed += 1
        self.last = (ell, loglik)
        return elapsed

    def check(self) -> None:
        ell, loglik = self.last
        oracle = dense_loglik(with_length(self.problem, ell), self.z)
        self.rel_err = abs(loglik - oracle) / abs(oracle)
        if not self.rel_err <= self.tolerance:
            self.failed += 1

    def traced(self, tracer, targets) -> tuple[int, dict]:
        base = self.op()
        with tracer.installed(targets):
            steps = []
            for i in range(2):
                with tracer.span("op", op=i):
                    steps.append(self.op())
        out = {"trace.overhead_share": statistics.median(steps) / base - 1.0}
        if self.observe_overhead:
            from repro import obs

            with obs.observe():
                observed = self.op()
            out["obs.observe_overhead_share"] = observed / base - 1.0
        return len(steps), out


# ----------------------------------------------------------------------
# factor_threads2, factor_ranks2
# ----------------------------------------------------------------------
class Factor(Workload):
    """One operation factorizes a fresh copy of one assembled matrix.

    Assembly is set-up, so a change to an executor is not diluted by it;
    the copy and the bitwise comparison against the sequential loops'
    factor are not timed.
    """

    workers = 2

    def __init__(self, spec: dict, seed: int, toy: bool) -> None:
        rng = np.random.default_rng(seed)
        self.problem = with_length(geometry(spec, toy), draw_length(rng))
        self.matrix = BandTLRMatrix.from_problem(
            self.problem, TruncationRule(eps=spec["eps"]), spec["band"]
        )
        self.how = spec["how"]
        # the sequential reference is the warm-up: a two-worker warm-up
        # would put the host's two-core interference into setup_s, and a
        # cold first operation is never the best one
        self.reference, _ = self.factorize()

    def factorize(self, span=nullcontext(), **how):
        """``(factor, (wall, cpu, report))`` of one factorization."""
        factor = self.matrix.copy()
        cpu, start = cpu_seconds(), time.perf_counter()
        with span:
            # through the module, so that the tracer's rebinding is seen here
            report = factorize.tlr_cholesky(factor, **how)
        wall = time.perf_counter() - start
        return factor, (wall, cpu_seconds() - cpu, report)

    def op(self) -> float:
        factor, (wall, _, _) = self.factorize(**self.how)
        if not same_factor(factor, self.reference):
            self.failed += 1
        return wall

    def traced(self, tracer, targets) -> tuple[int, dict]:
        seq, seq_traced, par = [], [], []
        for i in range(3):
            seq.append(self.factorize()[1])
            with tracer.installed(targets):
                seq_traced.append(self.factorize(tracer.span("op", op=i))[1])
            par.append(self.factorize(**self.how)[1])

        def med(runs, k):
            return statistics.median(r[k] for r in runs)

        grid = self.matrix.rank_grid()
        start = time.perf_counter()
        graph = build_cholesky_graph(
            self.matrix.ntiles,
            self.matrix.band_size,
            self.matrix.desc.tile_size,
            lambda i, j: int(max(grid[i, j], 1)),
        )
        graph_s = time.perf_counter() - start
        out = {
            "trace.overhead_share": med(seq_traced, 0) / med(seq, 0) - 1.0,
            "runtime.graph_build_s": graph_s,
            "runtime.graph_tasks": len(graph.tasks),
            "runtime.factorize_seq_s": med(seq, 0),
            "runtime.factorize_par_s": med(par, 0),
            "runtime.speedup": med(seq, 0) / med(par, 0),
            "runtime.cpu_s_seq": med(seq, 1),
            "runtime.cpu_s": med(par, 1),
            "runtime.cpu_wall": med(par, 1) / med(par, 0),
        }
        comm = par[-1][2].comm
        if comm is not None:
            out["distributed.messages"] = comm.messages
            out["distributed.bytes_mb"] = comm.bytes_sent / 1e6
            out["distributed.remote_edge_share"] = comm.remote_fraction
        return len(seq_traced), out


# ----------------------------------------------------------------------
# svc_cold
# ----------------------------------------------------------------------
class ServiceCold(Workload):
    """A one-worker ``SolverService`` whose every visit lands on a cold factor.

    Three identities take turns in a cache that holds one factor.  One
    operation is the first request of a visit: a miss, an eviction and a
    build through ``FactorRecipe.build``.  The rest of the visit is not an
    operation; it feeds the per-layer metrics and the checks.  ``SOLOS``
    requests follow one at a time: they hit, can never batch, and give
    ``server.solo_p50_ms``.  Then a closed loop: the generator thread keeps
    ``IN_FLIGHT`` tickets outstanding (that many logical clients that each
    wait for their reply, on two OS threads in all) until ``BURST``
    requests are done; they batch, and give ``server.burst_p50_ms``, the
    batch width, the queue waits and the solve share.

    The warm requests are not gated: the worker and the generator hand the
    interpreter lock back and forth, so whatever else wakes up on this
    two-core host lands on a core one of them is about to need and stalls
    both (a process using a tenth of a core adds 12-18 % to a request; a
    single busy thread loses nothing to it), which no bound can hold.
    """

    workers = 2  # the load generator and the service's worker
    LENGTHS = (0.08, 0.10, 0.12)
    #: one round: the identities cost differently, so a block holds each once
    BLOCK = len(LENGTHS)
    SOLOS = 20
    IN_FLIGHT = 8
    BURST = 80

    def __init__(self, spec: dict, seed: int, toy: bool) -> None:
        self.eps = spec["eps"]
        rng = np.random.default_rng(seed)
        problem = geometry(spec, toy)
        self.rhs = [rng.standard_normal(problem.n) for _ in range(64)]
        # A fourth identity, built outside the service, warms the process
        # (LAPACK work-size caches, pools, lazy imports) and sizes the cache
        # to hold one factor but never two; the cache counts stay exact.
        probe, _ = FactorRecipe(
            problem=with_length(problem, 0.09), accuracy=self.eps
        ).build()
        self.svc = SolverService(
            ServiceConfig(
                n_workers=1,
                cache_bytes=int(1.6 * FactorCache.factor_nbytes(probe)),
            )
        ).start()
        self.sessions = [
            self.svc.session(
                with_length(problem, draw_length(rng, nominal)), accuracy=self.eps
            )
            for nominal in self.LENGTHS
        ]
        self.visits = 0
        self.sent = 0
        self.solos_ms: list[float] = []
        self.burst_ms: list[float] = []
        self.burst_waits_ms: list[float] = []
        self.burst_wall_s = 0.0
        self.burst_solve_s = 0.0  # traced pass only

    def request(self, session):
        """Submit the next right-hand side of the pool: ``(pool index, ticket)``."""
        index = self.sent % len(self.rhs)
        self.sent += 1
        return index, session.submit(self.rhs[index])

    def solution(self, ticket):
        """The ticket's solution, or ``None`` after counting its failure."""
        try:
            return ticket.result(timeout=120.0)
        except TimeoutError:
            raise  # a hung service ends the run; it is not one failed request
        except Exception:  # noqa: BLE001 - any failed request is a failed operation
            self.failed += 1
            return None

    def burst(self, session):
        """``BURST`` requests with ``IN_FLIGHT`` outstanding; the last ``(index, x)``."""
        pending: deque = deque()
        last = None
        submitted = 0
        start = time.perf_counter()
        while True:
            while submitted < self.BURST and len(pending) < self.IN_FLIGHT:
                pending.append(self.request(session))
                submitted += 1
            if not pending:
                break
            index, ticket = pending.popleft()
            x = self.solution(ticket)
            if x is not None:
                self.burst_ms.append(ticket.latency_s * 1e3)
                self.burst_waits_ms.append(ticket.wait_s * 1e3)
                last = (index, x)
        self.burst_wall_s += time.perf_counter() - start
        return last

    def op(self, tracer=None) -> float:
        session = self.sessions[self.visits % len(self.sessions)]
        self.visits += 1
        span = nullcontext() if tracer is None else tracer.span("op", op=self.visits)
        with span:
            _, ticket = self.request(session)
            self.solution(ticket)
        last_solo = None
        for _ in range(self.SOLOS):
            index, solo = self.request(session)
            x = self.solution(solo)
            if x is not None:
                self.solos_ms.append(solo.latency_s * 1e3)
                last_solo = (index, x)
        solve_s = tracer.total_s["solve.solve_many"] if tracer else 0.0
        last_batched = self.burst(session)
        if tracer:
            self.burst_solve_s += tracer.total_s["solve.solve_many"] - solve_s
        # the last solo and the last batched solution against ``solve_spd``
        # on the resident factor, through one lookup (a cache hit)
        factor = self.svc.cache.get(session.key).matrix
        for index, x in filter(None, (last_solo, last_batched)):
            if not close_to(x, solve_spd(factor, self.rhs[index])):
                self.failed += 1
        return ticket.latency_s

    def run(self, seconds: float) -> list[float]:
        samples = super().run(seconds)
        # finish the round: the identities cost differently, and the result
        # must not depend on which of them the clock cut off
        while len(samples) % len(self.sessions):
            samples.append(self.op())
        return samples

    def check(self) -> None:
        stats = self.svc.stats()
        cache = stats.cache
        v = self.visits
        # per visit one miss that builds and evicts the previous factor; a
        # hit per batch that is not a miss, and the hit of op()'s own lookup
        expected = (v, v, v - 1, stats.batches)
        found = (cache.misses, cache.factorizations, cache.evictions, cache.hits)
        if found != expected:
            self.failed += 1

    def traced(self, tracer, targets) -> tuple[int, dict]:
        visits = len(self.sessions)
        base = [self.op() for _ in range(visits)]
        self.burst_ms.clear()
        self.burst_waits_ms.clear()
        self.burst_wall_s = 0.0
        with tracer.installed(targets):
            traced = [self.op(tracer) for _ in range(visits)]
        stats = self.svc.stats()
        cache = stats.cache
        # every batch that was neither a miss nor a solo belongs to a burst
        burst_batches = stats.batches - (1 + self.SOLOS) * self.visits
        solve_share = self.burst_solve_s / self.burst_wall_s
        out = {
            "cache.hits": cache.hits,
            "cache.misses": cache.misses,
            "cache.evictions": cache.evictions,
            "cache.factorizations": cache.factorizations,
            "cache.resident_mb": cache.resident_bytes / 1e6,
            "server.mean_batch_width": self.BURST * self.visits / burst_batches,
            "server.max_batch_width": stats.max_batch_width,
            "server.queue_wait_p50_ms": float(np.percentile(self.burst_waits_ms, 50)),
            "server.queue_wait_p99_ms": float(np.percentile(self.burst_waits_ms, 99)),
            "server.solo_p50_ms": statistics.median(self.solos_ms),
            "server.burst_p50_ms": statistics.median(self.burst_ms),
            "server.solve_share": solve_share,
            "server.overhead_share": 1.0 - solve_share,
            "server.rejected": stats.rejected,
            "server.dropped": stats.dropped,
            # the build runs on the worker's thread, the request span on ours
            "trace.coverage": tracer.total_s["cache.build"] / tracer.total_s["op"],
            "trace.overhead_share": (
                statistics.median(traced) / statistics.median(base) - 1.0
            ),
        }
        return len(traced), out

    def close(self) -> None:
        self.svc.stop()


# ----------------------------------------------------------------------
WORKLOADS = {
    "mle_lr": (Mle, dict(nt=24, eps=1e-4, band=2, observe_overhead=True)),
    "mle_tight": (Mle, dict(nt=16, eps=1e-8, band=2)),
    "mle_dense": (Mle, dict(nt=24, eps=1e-4, band=None)),
    "factor_threads2": (
        Factor, dict(nt=16, eps=1e-4, band=2, how=dict(n_workers=2))
    ),
    "factor_ranks2": (
        Factor,
        dict(nt=16, eps=1e-4, band=2, how=dict(executor="processes", n_ranks=2)),
    ),
    "svc_cold": (ServiceCold, dict(nt=16, eps=1e-4)),
}

KERNELS = (
    "potrf", "trsm_dense", "trsm_lr", "syrk_dense", "syrk_lr", "gemm_dense",
    "gemm_dense_lrd", "gemm_dense_lrlr", "gemm_lr_dense", "gemm_lr",
)


def end_to_end(workload, setup_s, samples, rss_mb) -> dict:
    """The end-to-end metrics of one untraced run, as ``{name: (value, unit)}``."""
    return {
        "setup_s": (setup_s, "s"),
        "op_best_ms": (workload.best_ms(samples), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, workload, ops: int, extra: dict) -> dict:
    """Every per-layer metric of one traced run, as ``{name: (value, unit)}``.

    Times and counts are means per traced operation (step, factorization,
    miss request or served request), so a layer's seconds compare directly
    with ``op_best_ms``; ``cache.*``, ``server.*``, ``runtime.*`` and
    ``distributed.*`` are totals or ratios of the traced pass.  A layer the
    workload bypasses reads 0.
    """
    sums, calls = tracer.sums, tracer.calls

    def self_s(name):
        return tracer.self_s[name] / ops

    def ratio(a, b):
        return a / b if b else 0.0

    pools = [
        get_backend(name).workspace_pool_stats for name in ("svd", "auto")
    ]
    reuses = sum(p.reuses for p in pools if p is not None)
    allocations = sum(p.allocations for p in pools if p is not None)
    recompressions = calls["backends.recompress"]
    m = {
        "statistics.tile_gen_s": (self_s("statistics.tile_gen"), "s"),
        "statistics.tile_gen_calls": (calls["statistics.tile_gen"] / ops, "count"),
        "matrix.assemble_self_s": (self_s("matrix.assemble"), "s"),
        "matrix.factor_mb": (sums["matrix.factor_mb"], "MB"),
        "matrix.lowrank_tiles": (sums["matrix.lowrank_tiles"], "count"),
        "matrix.mean_rank": (sums["matrix.mean_rank"], "count"),
        "backends.compress_s": (self_s("backends.compress"), "s"),
        "backends.compress_calls": (calls["backends.compress"] / ops, "count"),
        "backends.recompress_s": (self_s("backends.recompress"), "s"),
        "backends.recompress_calls": (recompressions / ops, "count"),
        "backends.recompress_width_in_mean": (
            ratio(sums["recompress.width_in"], recompressions), "count"
        ),
        "backends.recompress_rank_out_mean": (
            ratio(sums["recompress.rank_out"], recompressions), "count"
        ),
        "backends.recompress_keep_ratio": (
            ratio(sums["recompress.rank_out"], sums["recompress.width_in"]),
            "ratio",
        ),
        "backends.pool_reuse_share": (
            ratio(reuses, reuses + allocations), "ratio"
        ),
        "batched.run_batch_s": (self_s("batched.run_batch"), "s"),
        "batched.groups": (calls["batched.run_batch"] / ops, "count"),
        "batched.items_per_group": (
            ratio(sums["batched.items"], calls["batched.run_batch"]), "count"
        ),
        "autotuner.tune_s": (self_s("autotuner.tune"), "s"),
        "autotuner.band_size": (sums["autotuner.band_size"], "count"),
        "factorize.span_s": (tracer.total_s["factorize"] / ops, "s"),
        "factorize.dispatch_self_s": (self_s("factorize"), "s"),
        "factorize.max_rank": (sums["factorize.max_rank"], "count"),
        "factorize.rank_growth_events": (
            sums["factorize.rank_growth_events"] / ops, "count"
        ),
        "factorize.gflop_total": (
            sum(sums[f"gflop.{k}"] for k in KERNELS) / ops, "Gflop"
        ),
        "solve.loglik_s": (self_s("solve.loglik"), "s"),
        "solve.solve_many_s": (self_s("solve.solve_many"), "s"),
        "solve.solve_many_calls": (calls["solve.solve_many"] / ops, "count"),
        "solve.loglik_rel_err": (workload.rel_err, "ratio"),
        # the whole build, children included: the cache's own code is a sliver
        "cache.build_s": (tracer.total_s["cache.build"] / ops, "s"),
    }
    for k in KERNELS:
        m[f"hcore.{k}.self_s"] = (self_s(f"hcore.{k}"), "s")
        m[f"hcore.{k}.calls"] = (calls[f"hcore.{k}"] / ops, "count")
        m[f"hcore.{k}.gflop"] = (sums[f"gflop.{k}"] / ops, "Gflop")
        # modelled flops over the class's whole span, rounding included
        m[f"hcore.{k}.gflop_per_s"] = (
            ratio(sums[f"gflop.{k}"], tracer.total_s[f"hcore.{k}"]), "Gflop/s"
        )
    # share of the operations' wall-clock spent under a wrapped entry point
    extra.setdefault(
        "trace.coverage", 1.0 - ratio(tracer.self_s["op"], tracer.total_s["op"])
    )
    for name, unit in WORKLOAD_LAYER_UNITS.items():
        m[name] = (extra.get(name, 0.0), unit)
    return m


#: Per-layer metrics a workload's ``traced()`` supplies; 0 where it has none.
WORKLOAD_LAYER_UNITS = {
    "runtime.graph_build_s": "s",
    "runtime.graph_tasks": "count",
    "runtime.factorize_seq_s": "s",
    "runtime.factorize_par_s": "s",
    "runtime.speedup": "ratio",
    "runtime.cpu_s_seq": "s",
    "runtime.cpu_s": "s",
    "runtime.cpu_wall": "ratio",
    "distributed.messages": "count",
    "distributed.bytes_mb": "MB",
    "distributed.remote_edge_share": "ratio",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.evictions": "count",
    "cache.factorizations": "count",
    "cache.resident_mb": "MB",
    "server.mean_batch_width": "count",
    "server.max_batch_width": "count",
    "server.queue_wait_p50_ms": "ms",
    "server.queue_wait_p99_ms": "ms",
    "server.solo_p50_ms": "ms",
    "server.burst_p50_ms": "ms",
    "server.solve_share": "ratio",
    "server.overhead_share": "ratio",
    "server.rejected": "count",
    "server.dropped": "count",
    "obs.observe_overhead_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.coverage": "ratio",
}
