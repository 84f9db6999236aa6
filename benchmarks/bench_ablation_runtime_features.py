"""Ablations of the runtime design choices DESIGN.md calls out.

Beyond the paper's own feature table (Table II), these isolate each
runtime mechanism on the simulator with everything else held fixed:

* hybrid band distribution vs plain 2DBCDD (Section VII-C);
* tree collectives vs flat sender-serialized broadcast (Section III-C's
  PaRSEC-vs-StarPU collectives remark);
* recursive-split factor sweep (Section VII-D);
* dynamic memory pool on/off in the real executor (Section VII-B).
"""

from __future__ import annotations

import numpy as np

from repro import TruncationRule, st_3d_exp_problem
from repro.analysis import format_table, paper_rank_model, write_csv
from repro.distribution import BandDistribution, ProcessGrid, TwoDBlockCyclic
from repro.matrix import BandTLRMatrix
from repro.runtime import (
    MachineSpec,
    build_cholesky_graph,
    execute_graph_parallel,
    simulate,
)

B, NT, NODES = 1200, 48, 16
BAND = 4  # wide enough that the dense band carries the critical path


def _model():
    return paper_rank_model(B, accuracy=1e-8)


def test_ablation_band_distribution(benchmark, results_dir):
    """Band distribution vs plain 2DBCDD.

    Section VII-C's two stated reasons for the row-based band layout:
    the dense TRSMs of each panel run on distinct processes, and the
    mostly-sequential kernels along an on-band *row* need no
    communication.  We verify both directly, plus makespan parity.
    """
    g = build_cholesky_graph(NT, BAND, B, _model(), recursive_split=4)
    machine = MachineSpec(nodes=NODES)
    grid = ProcessGrid.squarest(NODES)
    d_band = BandDistribution(grid, band_size=BAND)
    d_2d = TwoDBlockCyclic(grid)

    res_band = simulate(g, d_band, machine)
    res_2d = benchmark.pedantic(
        simulate, args=(g, d_2d, machine), rounds=1, iterations=1
    )

    def on_band(tile):
        return abs(tile[0] - tile[1]) < BAND

    def band_row_remote_fraction(dist):
        """REMOTE fraction of edges whose endpoints both write on-band
        tiles of the same row — the paper's 'kernels on the same row'."""
        local = remote = 0
        for tid, t in g.tasks.items():
            if not on_band(t.out_tile):
                continue
            for e in t.deps:
                src_tile = g.tasks[e.src].out_tile
                if src_tile == t.out_tile:
                    continue  # same-tile chain edges are local everywhere
                if on_band(src_tile) and src_tile[0] == t.out_tile[0]:
                    if dist.owner(*src_tile) == dist.owner(*t.out_tile):
                        local += 1
                    else:
                        remote += 1
        return remote / max(local + remote, 1)

    def panel_trsm_spread(dist):
        """Mean number of distinct owners of each panel's dense TRSMs."""
        spreads = []
        for k in range(NT - 1):
            owners = {
                dist.owner(m, k)
                for m in range(k + 1, min(k + BAND, NT))
            }
            spreads.append(len(owners))
        return float(np.mean(spreads))

    rows = [
        ("band", round(res_band.makespan, 3),
         round(band_row_remote_fraction(d_band), 3),
         round(panel_trsm_spread(d_band), 2)),
        ("2DBCDD", round(res_2d.makespan, 3),
         round(band_row_remote_fraction(d_2d), 3),
         round(panel_trsm_spread(d_2d), 2)),
    ]
    headers = ["distribution", "makespan_s", "band_row_remote_frac",
               "panel_trsm_owner_spread"]
    print()
    print(format_table(headers, rows, title="ablation: band vs 2DBCDD"))
    write_csv(results_dir / "ablation_distribution.csv", headers, rows)

    assert res_band.makespan <= res_2d.makespan * 1.05
    # Row-based band layout: on-band row chains are communication-free.
    assert band_row_remote_fraction(d_band) == 0.0
    assert band_row_remote_fraction(d_2d) > 0.3
    # Panel TRSMs land on distinct processes under both (>= 2 on average).
    assert panel_trsm_spread(d_band) >= 2.0


def test_ablation_broadcast_tree_vs_flat(benchmark, results_dir):
    """Tree collectives beat flat NIC-serialized broadcast on wide fanouts."""
    g = build_cholesky_graph(NT, BAND, B, _model())
    grid = ProcessGrid.squarest(NODES)
    dist = BandDistribution(grid, band_size=BAND)

    res_tree = simulate(g, dist, MachineSpec(nodes=NODES, broadcast="tree"))
    res_flat = benchmark.pedantic(
        simulate, args=(g, dist, MachineSpec(nodes=NODES, broadcast="flat")),
        rounds=1, iterations=1,
    )
    rows = [
        ("tree", round(res_tree.makespan, 3), res_tree.comm.broadcasts),
        ("flat", round(res_flat.makespan, 3), res_flat.comm.broadcasts),
    ]
    print()
    print(format_table(["broadcast", "makespan_s", "broadcasts"], rows,
                       title="ablation: collectives"))
    write_csv(results_dir / "ablation_broadcast.csv",
              ["broadcast", "makespan_s", "broadcasts"], rows)

    assert res_tree.comm.broadcasts == res_flat.comm.broadcasts > 0
    assert res_tree.makespan <= res_flat.makespan * 1.02


def test_ablation_recursive_split(benchmark, results_dir):
    """More splits shorten the critical path, with diminishing returns."""
    machine = MachineSpec(nodes=NODES)
    dist = BandDistribution(ProcessGrid.squarest(NODES), band_size=BAND)
    rows = []
    makespans = {}
    for split in (None, 2, 4, 8):
        g = build_cholesky_graph(NT, BAND, B, _model(), recursive_split=split)
        res = simulate(g, dist, machine)
        makespans[split] = res.makespan
        rows.append((str(split), g.n_tasks, round(g.critical_path_flops() / 1e9, 2),
                     round(res.makespan, 3)))

    headers = ["split", "tasks", "critical_path_Gflop", "makespan_s"]
    print()
    print(format_table(headers, rows, title="ablation: recursive split factor"))
    write_csv(results_dir / "ablation_recursion.csv", headers, rows)

    benchmark.pedantic(
        build_cholesky_graph, args=(NT, BAND, B, _model()),
        kwargs={"recursive_split": 4}, rounds=1, iterations=1,
    )

    assert makespans[4] < makespans[None]
    assert makespans[8] <= makespans[2] * 1.02


def test_ablation_memory_pool(benchmark, results_dir):
    """The executor's pool turns most factor allocations into reuses."""
    prob = st_3d_exp_problem(2000, 125, seed=5)
    rule = TruncationRule(eps=1e-8)
    m = BandTLRMatrix.from_problem(prob, rule, band_size=1)
    grid = m.rank_grid()
    g = build_cholesky_graph(
        m.ntiles, 1, 125, lambda i, j: int(max(grid[i, j], 1))
    )

    rep = benchmark.pedantic(
        execute_graph_parallel, args=(g, m.copy()),
        kwargs={"n_workers": 1, "use_pool": True},
        rounds=1, iterations=1,
    )
    stats = rep.pool.stats
    rows = [
        ("allocations", stats.allocations),
        ("reuses", stats.reuses),
        ("hit_rate", round(stats.hit_rate, 3)),
        ("peak_MiB", round(stats.peak_bytes / 2**20, 2)),
        ("rank_growth_reallocations", rep.rank_growth_events),
    ]
    print()
    print(format_table(["metric", "value"], rows, title="ablation: memory pool"))
    write_csv(results_dir / "ablation_memory_pool.csv", ["metric", "value"], rows)

    assert stats.reuses > 0
    assert stats.hit_rate > 0.3
