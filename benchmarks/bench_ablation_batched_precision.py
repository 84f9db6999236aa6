"""Ablation — batched kernel dispatch, on a single-precision TLR factor.

H2OPUS-TLR owes its throughput to marshaling same-shape low-rank
operations into batched kernel calls, and the adaptive-precision TLR
lineage (Cao et al., PAPERS.md) shows fp32 factors are numerically free
whenever a tile's ε-budget sits above single-precision roundoff — which
is why off-band low-rank tiles are float32 wherever ε ≥ 1e-7
(:mod:`repro.linalg.precision`), with no option to turn it off.  This
bench measures batching on the paper's st-3D-exp workload at the
b = 100 CI scale, at ε = 1e-4 (so every off-band tile is fp32), against
the ``direct`` arm — exact-SVD backend, the reference loops.

Arms (factorization only; assembly is identical across arms):

* ``direct``   — svd backend, reference loops;
* ``batched``  — auto backend, the execution core at one inline worker
  with ``batch=True`` (batching only exists where a graph core runs).

Reproduction targets:

* correctness at every scale: batched execution is *bitwise identical*
  to unbatched on the same configuration, at ε = 1e-4 (fp32 off-band
  tiles) and at ε = 1e-8 (fp64); the fp32 factors' backward error stays
  within 10·ε of the dense matrix; fp32 storage halves the off-band
  low-rank footprint;
* the ``batched``-over-``direct`` factorization ratio is recorded, not
  asserted (``REPRO_BENCH_BATCH_FULL=1`` pins the full n = 1600 /
  b = 100 scale for it).  With BLAS pinned to one thread ``batch=True``
  is never faster than ``batch=False`` beyond noise, and the core at one
  worker is slower than the plain loops (docs/performance.md); the ratio
  carries the backends too — the exact oracle of ``direct`` rounds fp32
  tiles in fp64, the sampler of ``batched`` in fp32;
* GFLOP/s is recorded per arm (the two backends find ranks a few
  columns apart, so the modelled flops differ slightly).

Timings are the median of three runs (the ``perf_timer`` fixture).
Writes ``benchmarks/results/ablation_batched_precision.csv`` and the
ablation snapshot ``BENCH_batched.json`` at the repo root; neither is a
trajectory — a speed claim goes through ``tools/bench_pairs.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro import TruncationRule, st_3d_exp_problem
from repro.analysis import format_series, write_csv
from repro.core import tlr_cholesky
from repro.linalg import DenseTile
from repro.matrix import BandTLRMatrix

# Full scale is the acceptance scale itself; the smoke knobs exist for
# CI lanes that want an even quicker pass.
FULL = os.environ.get("REPRO_BENCH_BATCH_FULL", "") == "1"
N = 1600 if FULL else int(os.environ.get("REPRO_BENCH_BATCH_N", "1600"))
B = 100 if FULL else int(os.environ.get("REPRO_BENCH_BATCH_B", "100"))
BAND = 2
EPS = 1e-4
REPO_ROOT = Path(__file__).resolve().parent.parent


def _tiles_bitwise_equal(m1, m2) -> bool:
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


def test_ablation_batched_precision(benchmark, results_dir, perf_timer):
    prob = st_3d_exp_problem(N, B, seed=2021, nugget=1e-4)
    rule = TruncationRule(eps=EPS)
    dense = prob.dense()
    dense_norm = np.linalg.norm(dense)

    arms = {
        "direct": dict(backend="svd", batch=False),
        "batched": dict(backend="auto", batch=True),
    }

    def build(cfg, rule=rule):
        return BandTLRMatrix.from_problem(
            prob, rule, band_size=BAND, backend=cfg["backend"]
        )

    def factorize(cfg, m):
        return tlr_cholesky(
            m, batch=cfg["batch"], backend=cfg["backend"],
            executor="sequential" if cfg["batch"] else None,
        )

    base_cfg = {"n": N, "b": B, "band": BAND, "eps": EPS}
    record = {**base_cfg, "arms": {}}
    rows = []
    times = {}
    for name, cfg in arms.items():
        holder = {}

        def setup(cfg=cfg, holder=holder):
            holder["m"] = build(cfg)
            return holder["m"]

        timing = perf_timer(lambda m, cfg=cfg: factorize(cfg, m), setup=setup)
        times[name] = timing.median_s
        m = holder["m"]
        report = factorize(cfg, build(cfg))  # fresh run for accounting
        l = m.to_dense(lower_only=True)
        berr = float(np.linalg.norm(l @ l.T - dense) / dense_norm)
        gflops = report.counter.total / max(timing.median_s, 1e-12) / 1e9
        arm_rec = {
            "t_factorize": timing.median_s,
            "backward_error": berr,
            "gflops": gflops,
            "flops": report.counter.total,
            "offband_saving_factor": (
                report.precision_report.offband_saving_factor
            ),
            "fp32_tiles": report.precision_report.demoted_tiles,
        }
        record["arms"][name] = arm_rec
        rows.append(
            (
                name,
                round(timing.median_s, 4),
                round(times["direct"] / max(timing.median_s, 1e-12), 2),
                f"{berr:.2e}",
                round(gflops, 2),
            )
        )

    record["speedup_batched_over_direct"] = times["direct"] / max(
        times["batched"], 1e-12
    )

    print()
    print(
        format_series(
            "arm",
            ["t_factorize_s", "speedup_vs_direct", "backward_err", "gflops"],
            rows,
            title=(
                f"Ablation (N={N}, b={B}, eps={EPS:g}, fp32 off-band "
                "tiles): batched core vs the loops"
            ),
        )
    )

    # --- correctness: asserted at every scale ---------------------------
    # 1. batched bitwise == unbatched, in fp32 (ε = 1e-4) and fp64 (1e-8).
    for eps in (EPS, 1e-8):
        tight = TruncationRule(eps=eps)
        m_b = build(arms["batched"], tight)
        tlr_cholesky(m_b, executor="sequential", batch=True)
        m_u = build(arms["batched"], tight)
        tlr_cholesky(m_u, batch=False)
        assert _tiles_bitwise_equal(m_b, m_u), (
            f"batched factor differs from unbatched (eps={eps:g})"
        )

    for name, arm in record["arms"].items():
        # 2. the fp32 factors stay within 10·ε of the dense matrix.
        assert arm["backward_error"] <= 10 * EPS, (
            f"{name}: backward error {arm['backward_error']:.2e}"
        )
        # 3. fp32 storage halves the off-band low-rank footprint.
        saving = arm["offband_saving_factor"]
        assert saving > 1.9, f"{name}: off-band saving {saving:.2f}x < 1.9x"

    write_csv(
        results_dir / "ablation_batched_precision.csv",
        ["arm", "t_factorize_s", "speedup_vs_direct", "backward_err", "gflops"],
        rows,
    )
    (REPO_ROOT / "BENCH_batched.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    # one representative unit for --benchmark-only tables: the hot path.
    # tlr_cholesky factorizes in place, so each round gets a fresh build.
    benchmark.pedantic(
        lambda m: tlr_cholesky(m, executor="sequential", batch=True),
        setup=lambda: ((build(arms["batched"]),), {}),
        rounds=3,
    )
