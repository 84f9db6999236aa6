#!/usr/bin/env python3
"""Quickstart: compress, auto-tune, factorize, and solve a 3D covariance.

The five-minute tour of the library: build the paper's st-3D-exp
covariance problem at laptop scale, let the BAND_SIZE auto-tuner pick the
dense band, run the BAND-DENSE-TLR Cholesky, and solve a linear system —
checking the solution error against the compression threshold like the
paper's Section VIII-A does.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import TLRSolver, st_3d_exp_problem


def main() -> None:
    # 4096 spatial locations in the unit cube, Morton-ordered, with the
    # exponential Matérn kernel theta = (1, 0.1, 0.5).
    n, tile_size = 4096, 256
    problem = st_3d_exp_problem(n, tile_size, seed=0)
    print(f"problem: n={n}, tile={tile_size}, NT={problem.ntiles}")

    # Auto-tune BAND_SIZE at the paper's default accuracy; the off-band
    # tiles are compressed inside the factorization, each once.
    solver = TLRSolver.from_problem(problem, accuracy=1e-8)
    print(f"tuned: band_size={solver.band_size} "
          f"(box={solver.decision.band_size_range})")

    report = solver.factorize()
    mn, avg, mx = solver.matrix.rank_stats()
    print(f"factorized: {report.counter.total/1e9:.2f} modelled Gflop, "
          f"factor ranks min/avg/max = {mn}/{avg:.1f}/{mx}, "
          f"rank growths={report.rank_growth_events}")

    # Solve Sigma x = b against a known solution.
    rng = np.random.default_rng(1)
    x_true = rng.standard_normal(n)
    cov = problem.dense()          # small enough to check exactly
    b = cov @ x_true
    x = solver.solve(b)
    err = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
    print(f"solve: relative error = {err:.2e} "
          f"(compression threshold 1e-8 -> expect ~1e-9..1e-7)")

    # Memory story (Fig. 8): static descriptor vs dynamic designation.
    mem = solver.memory_report()
    print(f"memory: static {mem.static_bytes/2**20:.1f} MiB vs dynamic "
          f"{mem.dynamic_bytes/2**20:.1f} MiB "
          f"({mem.reduction_factor:.2f}x reduction)")

    assert err < 1e-5, "solution error should track the compression accuracy"
    print("OK")


if __name__ == "__main__":
    main()
