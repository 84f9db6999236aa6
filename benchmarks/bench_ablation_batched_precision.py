"""Ablation — batched kernel dispatch + adaptive mixed-precision TLR.

H2OPUS-TLR owes its throughput to marshaling same-shape low-rank
operations into batched kernel calls, and the adaptive-precision TLR
lineage (Cao et al., PAPERS.md) shows fp32 factors are numerically free
whenever a tile's ε-budget sits above single-precision roundoff.  This
bench measures both levers on the paper's st-3D-exp workload at the
b = 100 CI scale, against the ``direct`` arm — exact-SVD backend, the
reference loops, all-fp64 storage.

Arms (factorization only; assembly is identical across arms):

* ``direct``   — svd backend, reference loops, fp64;
* ``batched``  — auto backend, the execution core at one inline worker
  with ``batch=True`` (batching only exists where a graph core runs),
  fp64;
* ``new``      — as ``batched`` plus adaptive precision.

Reproduction targets:

* correctness at every scale: batched execution is *bitwise identical*
  to unbatched on the same configuration; the adaptive arm's backward
  error stays within 10x of the fp64 arm at ε = 1e-4; adaptive halves
  the off-band low-rank footprint;
* the ``new``-over-``direct`` factorization ratio is recorded, not
  asserted (``REPRO_BENCH_BATCH_FULL=1`` pins the full n = 1600 /
  b = 100 scale for it): the ≥ 1.3x gate it once carried was against
  the deleted PR-6 scipy-wrapper rounding arm.  With BLAS pinned to one
  thread ``batch=True`` is never faster than ``batch=False`` beyond
  noise, and since the fused update rounds once per tile the core at
  one worker reads 0.85x the plain loops here (docs/performance.md);
* per-kernel-class GFLOP/s is recorded per arm (flops are identical
  across arms by the bitwise invariant, so the uplift is pure time).

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
        "direct": dict(backend="svd", batch=False, precision=None),
        "batched": dict(backend="auto", batch=True, precision=None),
        "new": dict(backend="auto", batch=True, precision="adaptive"),
    }

    def build(cfg):
        return BandTLRMatrix.from_problem(
            prob, rule, band_size=BAND,
            backend=cfg["backend"], precision=cfg["precision"],
        )

    def factorize(cfg, m):
        return tlr_cholesky(
            m, batch=cfg["batch"], precision=cfg["precision"],
            backend=cfg["backend"],
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
        }
        if report.precision_report is not None:
            arm_rec["offband_saving_factor"] = (
                report.precision_report.offband_saving_factor
            )
            arm_rec["demoted_tiles"] = report.precision_report.demoted_tiles
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

    headline = times["direct"] / max(times["new"], 1e-12)
    record["speedup_new_over_direct"] = headline
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
                f"Ablation (N={N}, b={B}, eps={EPS:g}): "
                "batched + adaptive precision vs the fp64 loops"
            ),
        )
    )

    # --- correctness: asserted at every scale ---------------------------
    # 1. batched bitwise == unbatched, fp64 and adaptive alike.
    for precision in (None, "adaptive"):
        m_b = BandTLRMatrix.from_problem(
            prob, rule, band_size=BAND, backend="auto", precision=precision
        )
        tlr_cholesky(
            m_b, executor="sequential", batch=True, precision=precision
        )
        m_u = BandTLRMatrix.from_problem(
            prob, rule, band_size=BAND, backend="auto", precision=precision
        )
        tlr_cholesky(m_u, batch=False, precision=precision)
        assert _tiles_bitwise_equal(m_b, m_u), (
            f"batched factor differs from unbatched (precision={precision})"
        )

    # 2. adaptive accuracy within 10x of fp64 at eps=1e-4.
    err64 = record["arms"]["direct"]["backward_error"]
    errad = record["arms"]["new"]["backward_error"]
    assert errad < 10 * max(err64, EPS), (
        f"adaptive backward error {errad:.2e} vs fp64 {err64:.2e}"
    )

    # 3. adaptive halves the off-band low-rank footprint.
    saving = record["arms"]["new"]["offband_saving_factor"]
    assert saving > 1.9, f"off-band saving {saving:.2f}x < 1.9x"

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
        lambda m: tlr_cholesky(
            m, executor="sequential", batch=True, precision="adaptive"
        ),
        setup=lambda: ((build(arms["new"]),), {}),
        rounds=3,
    )
