#!/usr/bin/env python3
"""Solver service: factorize once, serve many concurrent solves.

The paper's production workload — Matérn parameter estimation over a
fixed 3D geometry — solves against the *same* covariance factor
thousands of times.  The :mod:`repro.service` layer packages that shape:
a geometry-keyed factor cache (factorize at most once per identity),
sharded solver workers that stack concurrent same-factor requests into
one multi-RHS substitution sweep, bounded-queue admission control, and
per-request deadlines.

This demo opens a session, warms the factor (the one factorization),
fires concurrent client threads at it, and prints the serving report:
latency percentiles, batch widths, and the cache counters proving no
request triggered a second factorization.

Run:  python examples/service_demo.py
"""

from __future__ import annotations

import threading

import numpy as np

from repro import st_3d_exp_problem
from repro.service import ServiceConfig, SolverService

N, TILE, EPS = 2048, 128, 1e-6
CLIENTS, REQUESTS = 8, 10


def main() -> None:
    problem = st_3d_exp_problem(N, TILE, seed=0)
    config = ServiceConfig(
        n_workers=2,        # solver threads = factor shards
        max_queue_depth=64, # admission control: reject beyond this depth
        max_batch=16,       # stack up to 16 same-factor solves per sweep
    )
    print(f"problem: n={N}, tile={TILE}, eps={EPS:g}; "
          f"{CLIENTS} clients x {REQUESTS} requests")

    with SolverService(config) as svc:
        session = svc.session(problem, accuracy=EPS, band_size=1)

        # Factorize once, up front — every request below is a cache hit.
        entry = session.warm()
        pr = entry.report.precision_report
        print(f"factor resident: {entry.nbytes / 2**20:.1f} MiB under key "
              f"{session.key.digest()} ({pr.demoted_tiles} of "
              f"{pr.lowrank_tiles} low-rank tiles fp32)")

        errors: list[float] = []
        lock = threading.Lock()
        dense = problem.dense()     # small enough to check exactly

        def client(cid: int) -> None:
            rng = np.random.default_rng(cid)
            for _ in range(REQUESTS):
                rhs = rng.standard_normal(N)
                x = session.solve(rhs, timeout=60)
                ref = np.linalg.solve(dense, rhs)
                rel = np.linalg.norm(x - ref) / np.linalg.norm(ref)
                with lock:
                    errors.append(rel)

        threads = [
            threading.Thread(target=client, args=(cid,))
            for cid in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        stats = svc.stats()

    print(f"served {stats.completed} solves in {stats.batches} batches "
          f"(mean width {stats.mean_batch_width:.1f}, "
          f"max {stats.max_batch_width})")
    print(f"latency p50/p95/p99 = {stats.p50_ms:.2f} / {stats.p95_ms:.2f} "
          f"/ {stats.p99_ms:.2f} ms")
    cache = stats.cache
    print(f"cache: {cache.hits} hits, {cache.misses} misses, "
          f"{cache.factorizations} factorization(s)")
    print(f"max solve error vs dense reference: {max(errors):.2e}")

    assert cache.factorizations == 1, "warm identity must never refactorize"
    assert max(errors) < 100 * EPS
    print("OK")


if __name__ == "__main__":
    main()
