"""Ablation — the execution core on 1, 2 and 4 workers vs ``tlr_cholesky``'s default.

The paper's PaRSEC runs execute the BAND-DENSE-TLR Cholesky graph with
dependency-driven worker threads; our simulator replays the same graph
against a machine model.  This bench closes the loop on real hardware:
it factorizes one NT = 16 st-3D-exp matrix with ``tlr_cholesky`` driven
by ``execute_graph_parallel`` at 1, 2 and 4 workers, records wall-clock
and achieved Gflop/s per worker count against the default call (the
``seq`` row: the core at one inline worker, no ``n_workers``), and
validates every factor against the dense ``scipy.linalg.cholesky``
reference.

Reproduction targets are *correctness invariants*, not speedup: the
factor must be bitwise identical across worker counts (all writes to a
tile are totally ordered by dataflow edges) and must match the dense
reference to the truncation accuracy.  Speedup is recorded for the
ablation table but not asserted — CI runners and this container may
expose a single core, where worker threads can only break even.
"""

from __future__ import annotations

import os
import time

import numpy as np
import scipy.linalg as sla

from repro import TruncationRule, st_3d_exp_problem
from repro.analysis import format_series, write_csv
from repro.core import tlr_cholesky
from repro.matrix import BandTLRMatrix

# Defaults give NT = 16; CI's bench-smoke job shrinks the tile (keeping
# NT = 16) via the REPRO_BENCH_ABLATION_* knobs.
N = int(os.environ.get("REPRO_BENCH_ABLATION_N", "3600"))
B = int(os.environ.get("REPRO_BENCH_ABLATION_B", "225"))
BAND = 2
WORKER_COUNTS = [1, 2, 4]


def _backward_error(matrix, dense):
    l = matrix.to_dense(lower_only=True)
    return np.linalg.norm(l @ l.T - dense) / np.linalg.norm(dense)


def test_ablation_parallel_executor(benchmark, results_dir):
    prob = st_3d_exp_problem(N, B, seed=2021, nugget=1e-4)
    rule = TruncationRule(eps=1e-8)
    base = BandTLRMatrix.from_problem(prob, rule, band_size=BAND)
    dense = prob.dense()

    # Dense reference: scipy must agree with the TLR factors below.
    l_ref = sla.cholesky(dense, lower=True)

    t0 = time.perf_counter()
    seq = base.copy()
    rep_seq = tlr_cholesky(seq)
    t_seq = time.perf_counter() - t0
    err_seq = _backward_error(seq, dense)

    rows = [("seq", round(t_seq, 3), 1.0, f"{err_seq:.2e}",
             round(rep_seq.counter.total / t_seq / 1e9, 2))]
    factors = {}
    for w in WORKER_COUNTS:
        m = base.copy()
        t0 = time.perf_counter()
        rep = tlr_cholesky(m, n_workers=w)
        dt = time.perf_counter() - t0
        err = _backward_error(m, dense)
        factors[w] = m.to_dense(lower_only=True)
        rows.append(
            (
                f"par-{w}",
                round(dt, 3),
                round(t_seq / dt, 2),
                f"{err:.2e}",
                round(rep.counter.total / dt / 1e9, 2),
            )
        )
        assert err < 1e-6
        # Same truncated factor the dense reference produces, up to the
        # compression error carried by the TLR representation.
        assert np.allclose(factors[w], np.tril(l_ref), atol=1e-5)

    headers = ["executor", "seconds", "speedup_vs_seq", "backward_err", "gflops"]
    print()
    print(
        format_series(
            "executor",
            headers[1:],
            rows,
            title=f"Ablation (N={N}, b={B}, band={BAND}): parallel executor",
        )
    )
    write_csv(results_dir / "ablation_parallel_executor.csv", headers, rows)

    # Dataflow edges totally order all writes per tile: any worker count
    # must reproduce the 1-worker factor bit for bit.
    for w in WORKER_COUNTS[1:]:
        assert np.array_equal(factors[WORKER_COUNTS[0]], factors[w])
    # And the explicit worker counts must match the default call.
    assert np.allclose(factors[1], seq.to_dense(lower_only=True), atol=1e-9)

    # Time one representative 2-worker factorization for the benchmark table.
    benchmark(lambda: tlr_cholesky(base.copy(), n_workers=2))
