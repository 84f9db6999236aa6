"""Fig. 6 (a-d) — BAND_SIZE auto-tuning: time, flops, per-sub-diagonal
costs, and the cost of the tuning pipeline itself.

Paper setting: N = 1.08M / 2.16M, b = 2400, eps = 1e-8, on 512 nodes —
ratio_maxrank there is ~0.1-0.4.  At laptop scale the same eps leaves
ratio_maxrank near 0.7 (see Fig. 2b bench), which is a *different regime*
(densify almost everything).  To reproduce the figure's regime we match
the dimensionless ratio instead of eps: N = 7200, b = 450, eps = 1e-4
gives ratio_maxrank ≈ 0.36 and an interior sweet spot — the documented
scaled substitution (DESIGN.md).

Reproduction targets:

* (a) time-to-solution at the auto-tuned BAND_SIZE is no worse than at
  band 1 and near the sweep's best.  The paper's interior *time* sweet
  spot rests on per-update rounding, which makes a compressed tile cost
  O(NT) roundings; with the fused update (one rounding per tile,
  ``core/factorize.py``) and sampled compression the band-1 layout lost
  that penalty and the time sweep is flat to within timer noise here, so
  a time *gain* from densification is no longer asserted;
* (b) total flops have an interior sweet spot, and the tuned band sits
  on its way down from band 1;
* (c) per-sub-diagonal dense-vs-TLR flops cross over at the tuned band,
  with the sub-diagonal maxrank annotations decaying overall;
* (d) tuning + band regeneration cost is negligible vs factorization;
  the "auto (outward probe)" row is what ``band_size="auto"`` pays in
  this repo for the *whole* assembly at the tuned band
  (:func:`repro.core.autotune_matrix`: same matrix, bitwise, as the
  three rows above it, without compressing the band it discards).
"""

from __future__ import annotations

import time

from repro import TruncationRule
from repro.analysis import format_series, format_table, write_csv
from repro.core import autotune_matrix, tlr_cholesky, tune_band_size
from repro.matrix import BandTLRMatrix
from repro.utils import Stopwatch

EPS = 1e-4
BAND_SWEEP = [1, 2, 3, 4, 6, 8]


def test_fig06_bandsize_autotuning(benchmark, results_dir, problem_small):
    # N = 7200, b = 450 unless CI's bench-smoke shrinks it
    # (REPRO_BENCH_N_SMALL / REPRO_BENCH_B_SMALL, benchmarks/conftest.py).
    prob = problem_small
    N, B = prob.n, prob.tile_size
    rule = TruncationRule(eps=EPS)
    sw = Stopwatch()

    with sw.measure("generate+compress(band=1)"):
        m1 = BandTLRMatrix.from_problem(prob, rule, band_size=1)

    with sw.measure("band_size_autotuning"):
        decision = tune_band_size(m1.rank_grid(), B)
    tuned = decision.band_size

    with sw.measure("band_regeneration"):
        m_tuned = m1.with_band_size(tuned, prob)

    with sw.measure("auto(outward probe)"):
        m_auto, auto_decision = autotune_matrix(prob, rule)
    # The outward probe is the same pipeline, not a different tuner.
    assert auto_decision.band_size == tuned
    assert auto_decision.band_size_range == decision.band_size_range
    assert m_auto.rank_grid().tolist() == m_tuned.rank_grid().tolist()
    del m_auto

    # ---- (a) + (b): sweep BAND_SIZE, real factorizations ---------------
    rows_ab = []
    times, flops = {}, {}
    for band in BAND_SWEEP:
        # with_band_size shares unchanged tiles with its source and the
        # factorization mutates tiles in place, so deep-copy each run.
        if band == 1:
            base = m1
        elif band == tuned:
            base = m_tuned
        else:
            base = m1.with_band_size(band, prob)
        m = base.copy()
        t0 = time.perf_counter()
        rep = tlr_cholesky(m)
        dt = time.perf_counter() - t0
        times[band], flops[band] = dt, rep.counter.total
        rows_ab.append((band, round(dt, 3), round(rep.counter.total / 1e9, 2)))
    headers_ab = ["band_size", "time_s", "gflops_total"]
    print()
    print(format_series(
        "band_size", headers_ab[1:], rows_ab,
        title=f"Fig. 6a/6b (N={N}, b={B}, eps={EPS:g}); tuned BAND_SIZE={tuned}, "
              f"fluctuation box={decision.band_size_range}"))
    write_csv(results_dir / "fig06ab_bandsize_sweep.csv", headers_ab, rows_ab)

    # ---- (c): per-sub-diagonal dense vs TLR flops -----------------------
    rows_c = [
        (c.band_id, c.maxrank, c.ntile,
         round(c.dense_flops / 1e9, 2), round(c.tlr_flops / 1e9, 2))
        for c in decision.costs
    ]
    headers_c = ["band_id", "maxrank", "ntiles", "dense_gflops", "tlr_gflops"]
    print(format_table(headers_c, rows_c, title="Fig. 6c: sub-diagonal costs"))
    write_csv(results_dir / "fig06c_subdiagonal_flops.csv", headers_c, rows_c)

    # ---- (d): pipeline cost split ---------------------------------------
    fact_time = times[tuned]
    rows_d = [
        ("compress(band=1)", round(sw.total("generate+compress(band=1)"), 4)),
        ("autotune", round(sw.total("band_size_autotuning"), 6)),
        ("regenerate band", round(sw.total("band_regeneration"), 4)),
        ("auto (outward probe)", round(sw.total("auto(outward probe)"), 4)),
        ("factorization", round(fact_time, 4)),
    ]
    print(format_table(["phase", "seconds"], rows_d, title="Fig. 6d: pipeline costs"))
    write_csv(results_dir / "fig06d_tuning_cost.csv", ["phase", "seconds"], rows_d)

    # Benchmark unit: the tuning decision itself (microseconds-cheap).
    benchmark(lambda: tune_band_size(m1.rank_grid(), B))

    # ---- reproduction assertions ----------------------------------------
    # Densification pays in (rank-exact counted) flops — the paper's
    # Table-I counting reports ~1.5x, our counter a smaller but still
    # real reduction — and costs no time: the tuned band is not slower
    # than the pure-TLR layout beyond 5 % (module docstring, (a)).
    assert times[tuned] <= 1.05 * times[1]
    assert flops[tuned] < 0.9 * flops[1]
    # "The predicted BAND_SIZE is close to the optimal": within 50% of the
    # sweep's best time.  (At this scale Morton ordering produces rank
    # *spikes* on isolated sub-diagonals — band_id 8 in Fig. 6c below — so
    # Algorithm 1's consecutive-prefix rule stops earlier than the global
    # optimum; the paper's smoother rank decay makes the two coincide.)
    best_time = min(times.values())
    assert times[tuned] <= 1.5 * best_time
    # (c): dense wins inside the tuned band, TLR wins outside it.
    for c in decision.costs:
        if c.band_id <= tuned:
            assert c.dense_flops <= c.tlr_flops
    tail = [c for c in decision.costs if c.band_id > tuned]
    assert sum(c.tlr_flops < c.dense_flops for c in tail) > len(tail) * 0.7
    # (d): tuning + regeneration negligible vs factorization (paper: "clearly
    # negligible").
    overhead = sw.total("band_size_autotuning") + sw.total("band_regeneration")
    assert overhead < 0.25 * fact_time
