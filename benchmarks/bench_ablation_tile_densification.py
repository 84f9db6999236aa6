"""Ablation — tile-based densification vs band-based (paper future work).

Section IX proposes changing "the data structure on a tile-based instead
of a band-basis to capture tiles with high ranks located far away from
the diagonal".  Our laptop-scale st-3D-exp workload is such a case:
Morton ordering leaves high-rank *spikes* on isolated sub-diagonals (see
the Fig. 6c bench) that a contiguous band can only capture by densifying
the cheap sub-diagonals in between.

Compared on real MLE-style steps — assembly + factorization, timed
together because the tile arm defers its compressions into the
factorization (defaults N = 7200, b = 450, ε = 1e-4; the
REPRO_BENCH_ABLATION_* knobs shrink N and b, but CI's bench-smoke job
runs the defaults: below b = 450 the flop assertion no longer holds,
see EXPERIMENTS.md):

* BAND (Algorithm 1's tuned band);
* BAND-WIDE (the band widened to cover every tile the tile arm keeps dense);
* TILE — the library's per-tile mechanism: the ``dense_map`` of a first
  factorization (a band-1 deferred assembly, each tile decided by
  ``keep_dense`` after its own compression), then a deferred assembly
  under that map, as every MLE step after the first runs it.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import TruncationRule, st_3d_exp_problem
from repro.analysis import format_table, write_csv
from repro.core import tlr_cholesky, tune_band_size
from repro.matrix import BandTLRMatrix

N = int(os.environ.get("REPRO_BENCH_ABLATION_N", "7200"))
B = int(os.environ.get("REPRO_BENCH_ABLATION_B", "450"))
EPS = 1e-4


def test_ablation_tile_densification(benchmark, results_dir):
    prob = st_3d_exp_problem(N, B, seed=2021)
    rule = TruncationRule(eps=EPS)
    grid = BandTLRMatrix.from_problem(prob, rule, 1).rank_grid()
    band = tune_band_size(grid, B).band_size

    first = BandTLRMatrix.from_problem(prob, rule, 1, defer=True)
    tlr_cholesky(first)
    mask = first.dense_map()
    marked = np.argwhere(np.tril(mask, -1))
    wide = int(max(i - j for i, j in marked)) + 1 if len(marked) else band

    arms = {
        "band(tuned)": (band, lambda: BandTLRMatrix.from_problem(prob, rule, band)),
        "band(wide)": (wide, lambda: BandTLRMatrix.from_problem(prob, rule, wide)),
        "tile(map)": (
            1, lambda: BandTLRMatrix.from_problem(prob, rule, 1, defer=mask)
        ),
    }

    def step(assemble):
        t0 = time.perf_counter()
        m = assemble()
        rep = tlr_cholesky(m)
        return time.perf_counter() - t0, m, rep

    rows = []
    results = {}
    for name, (band_size, assemble) in arms.items():
        # best of two: a shared host only ever adds time
        (dt, m, rep), (dt2, _, _) = step(assemble), step(assemble)
        dt = min(dt, dt2)
        mem = m.memory_elements()
        results[name] = (dt, rep.counter.total, mem)
        rows.append(
            (name, band_size, round(dt, 3), round(rep.counter.total / 1e9, 1),
             round(mem * 8 / 2**20, 1), rep.tiles_densified_online)
        )

    headers = ["layout", "band", "time_s", "Gflop", "factor_MiB", "born_dense"]
    print()
    print(format_table(
        headers, rows,
        title=(f"ablation: tile vs band densification "
               f"(N={N}, b={B}, eps={EPS:g}; tuned band={band}, "
               f"tile map: {len(marked)} off-band tiles dense)")))
    write_csv(results_dir / "ablation_tile_densification.csv", headers, rows)

    benchmark.pedantic(step, args=(arms["tile(map)"][1],), rounds=1, iterations=1)

    # ---- assertions ------------------------------------------------------
    t_band, fl_band, _ = results["band(tuned)"]
    _, _, mem_wide = results["band(wide)"]
    t_tile, fl_tile, mem_tile = results["tile(map)"]
    # The tile map captures the spikes: fewer modelled flops than the
    # tuned band, at less memory than the band that covers them.
    assert fl_tile < fl_band
    assert mem_tile < mem_wide
    # Wall-clock parity; generous bound because suite-wide runs time this
    # under load (the deterministic flop/memory wins above are the claim).
    assert t_tile < t_band * 1.4
