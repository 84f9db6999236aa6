"""Ablation — multi-process distributed executor: ranks vs wall-time.

The paper's distributed runs scale the BAND-DENSE-TLR Cholesky across
nodes with explicit tile communication; our process executor reproduces
that topology on one host — separate address spaces, tiles placed by the
hybrid band/off-band distribution, panel factors broadcast over binomial
trees.  This bench factorizes one matrix at 1, 2 and 4 ranks with
``execute_graph_distributed``, records wall-time *and bytes moved* per
rank count, and validates every factor bitwise against the thread
executor.

Reproduction targets are correctness invariants plus the communication
model: the factor must be bitwise identical at every rank count, and the
realized LOCAL/REMOTE edge split must match the analytical classifier
exactly.  Speedup is recorded for the ablation table but not asserted —
process spawn + pickle overhead dominates at laptop scale, and CI
runners may expose a single core.

Rank scaling is gated by the ``factor_ranks2`` workload of
``benchmarks/e2e/run.py``, not here.
"""

from __future__ import annotations

import os

import numpy as np

from repro import TruncationRule, st_3d_exp_problem
from repro.analysis import format_series, write_csv
from repro.distribution import default_distribution
from repro.matrix import BandTLRMatrix
from repro.runtime import (
    build_cholesky_graph,
    classify_dataflow,
    execute_graph_distributed,
    execute_graph_parallel,
)

# Defaults give NT = 16; CI's bench-smoke job shrinks the problem
# (keeping NT) via the REPRO_BENCH_DISTRIBUTED_* knobs.
N = int(os.environ.get("REPRO_BENCH_DISTRIBUTED_N", "2048"))
B = int(os.environ.get("REPRO_BENCH_DISTRIBUTED_B", "128"))
BAND = 2
RANK_COUNTS = [1, 2, 4]


def _graph_for(matrix):
    grid = matrix.rank_grid()
    return build_cholesky_graph(
        matrix.ntiles, BAND, matrix.desc.tile_size,
        lambda i, j: int(max(grid[i, j], 1)),
    )


def test_ablation_distributed_executor(benchmark, results_dir, perf_timer):
    prob = st_3d_exp_problem(N, B, seed=2021, nugget=1e-4)
    rule = TruncationRule(eps=1e-8)
    base = BandTLRMatrix.from_problem(prob, rule, band_size=BAND)
    graph = _graph_for(base)

    # Thread-executor reference: the distributed factor must match it
    # bitwise at every rank count.
    ref = base.copy()
    t_thr = perf_timer(
        lambda: execute_graph_parallel(graph, base.copy(), n_workers=2),
        repeats=2,
    )
    execute_graph_parallel(graph, ref, n_workers=2)
    ref_factor = ref.to_dense(lower_only=True)

    rows = [("threads-2", round(t_thr.median_s, 3), "-", "-", "-")]
    for ranks in RANK_COUNTS:
        dist = default_distribution(graph, ranks)
        flow = classify_dataflow(graph, dist)
        last: dict = {}

        def run(ranks=ranks):
            m = base.copy()
            last["rep"] = execute_graph_distributed(
                graph, m, n_ranks=ranks
            )
            last["factor"] = m.to_dense(lower_only=True)

        t = perf_timer(run, repeats=2)
        rep = last["rep"]
        assert np.array_equal(last["factor"], ref_factor), (
            f"{ranks}-rank factor diverged from the thread executor"
        )
        # Realized comm must equal the analytical LOCAL/REMOTE split.
        assert rep.dataflow.edges == flow.edges
        rows.append(
            (
                f"ranks-{ranks}",
                round(t.median_s, 3),
                rep.comm.remote_edges,
                round(rep.comm.bytes_sent / 2**20, 3),
                round(rep.wire_bytes / 2**20, 3),
            )
        )

    headers = ["executor", "seconds", "remote_edges",
               "modelled_MiB", "wire_MiB"]
    print()
    print(
        format_series(
            "executor",
            headers[1:],
            rows,
            title=f"Ablation (N={N}, b={B}, band={BAND}): "
                  "distributed executor, ranks vs wall-time",
        )
    )
    write_csv(results_dir / "ablation_distributed.csv", headers, rows)

    # One-rank runs move no tiles; more ranks move monotonically more.
    bytes_by_ranks = [r[3] for r in rows[1:]]
    assert bytes_by_ranks[0] == 0.0
    assert bytes_by_ranks == sorted(bytes_by_ranks)

    # Time one representative 2-rank factorization for the benchmark table.
    benchmark(
        lambda: execute_graph_distributed(graph, base.copy(), n_ranks=2)
    )
