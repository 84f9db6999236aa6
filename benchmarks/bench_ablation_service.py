"""Ablation — batched vs one-at-a-time solve serving under concurrency.

The solver service's claim (docs/service.md): at concurrent load,
stacking same-factor requests into one multi-RHS
:func:`~repro.core.solve.solve_many` call beats serving them one at a
time, because each stacked sweep walks the factor's tiles once for all
pending columns instead of once per request.  The paper's motivating
workload (Matérn parameter estimation over a fixed geometry) is exactly
this traffic shape: one factorization, thousands of solves.

Measured: a closed-loop load run (factorize outside the window) against
two service arms that differ *only* in ``max_batch`` — 1 (solo) versus
16 (batched) — on a single worker, so batching is the whole delta.
p50/p95/p99 client-observed latencies go to the CSV.

Correctness is asserted at every scale: a solve served through the
batched concurrent pipeline must match the dense reference, every
request completes, and batching engages in the batched arm only.  The
p50 ratio is recorded, not asserted: warm serving latency cannot be
gated on a shared host (``benchmarks/e2e/README.md``).

Scale knobs: ``REPRO_BENCH_SERVICE_N`` / ``_B`` / ``_CLIENTS`` /
``_REQUESTS``.
"""

from __future__ import annotations

import os

import numpy as np

from repro import st_3d_exp_problem
from repro.analysis import format_table, write_csv
from repro.service import ServiceConfig, SolverService, run_load

N = int(os.environ.get("REPRO_BENCH_SERVICE_N", "2048"))
B = int(os.environ.get("REPRO_BENCH_SERVICE_B", "128"))
CLIENTS = int(os.environ.get("REPRO_BENCH_SERVICE_CLIENTS", "8"))
REQUESTS = int(os.environ.get("REPRO_BENCH_SERVICE_REQUESTS", "10"))
EPS = 1e-6


def _arm(problem, max_batch: int):
    """One service run: single worker, batching is the only variable."""
    config = ServiceConfig(
        n_workers=1,
        max_queue_depth=max(64, 2 * CLIENTS),
        max_batch=max_batch,
    )
    with SolverService(config) as svc:
        session = svc.session(problem, accuracy=EPS, band_size=1)
        report = run_load(
            session,
            clients=CLIENTS,
            requests_per_client=REQUESTS,
            seed=2021,
        )
        # correctness at scale: a batched concurrent solve matches dense
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal(problem.n)
        x = session.solve(rhs, timeout=60)
        ref = np.linalg.solve(problem.dense(), rhs)
        rel = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        assert rel < 100 * EPS, f"served solve off by {rel:g}"
        assert report.factorizations == 1   # factorize-once held under load
    return report


def test_ablation_service_batching(benchmark, results_dir):
    problem = st_3d_exp_problem(N, B, seed=2021)
    solo = _arm(problem, max_batch=1)
    batched = _arm(problem, max_batch=16)
    ratio = solo.p50_ms / batched.p50_ms if batched.p50_ms > 0 else 0.0

    headers = ["arm", "p50_ms", "p95_ms", "p99_ms", "throughput_rps",
               "mean_batch_width", "completed", "rejected"]
    rows = [
        ("solo", round(solo.p50_ms, 3), round(solo.p95_ms, 3),
         round(solo.p99_ms, 3), round(solo.throughput_rps, 1),
         1.0, solo.completed, solo.rejected),
        ("batched", round(batched.p50_ms, 3), round(batched.p95_ms, 3),
         round(batched.p99_ms, 3), round(batched.throughput_rps, 1),
         round(batched.mean_batch_width, 2), batched.completed,
         batched.rejected),
    ]
    print()
    print(format_table(
        headers, rows,
        title=f"ablation: solve serving, {CLIENTS} closed-loop clients "
              f"(N={N}, b={B}, eps={EPS:g}; p50 ratio {ratio:.2f}x)"))
    write_csv(results_dir / "ablation_service.csv", headers, rows)

    benchmark.pedantic(
        lambda: _arm(problem, max_batch=16), rounds=1, iterations=1,
    )

    # everyone finished: closed-loop retry absorbs backpressure, no drops
    quota = CLIENTS * REQUESTS
    assert solo.completed == quota and batched.completed == quota
    assert solo.dropped == batched.dropped == 0
    assert solo.failed == batched.failed == 0
    # batching engaged in the batched arm only
    assert batched.mean_batch_width > 1.0
