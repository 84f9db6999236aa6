"""Tests for the simulator-guided autotuner (``repro.tune``).

Covers the full calibrate → sweep → verify loop: exact rank recovery
from recorded runs, kernel-cost fitting (one rule: a task replays its
class's mean recorded duration), sweep determinism and winner
dominance, the shared smallest-band tie-break, config JSON round-trips
through ``execute --config``, and the CLI's exit-code contract (2 on
bad paths/config, 1 on a failed verify gate).

The module-scope ``recorded`` fixture executes one real band-1 run of a
256-point problem and writes standard ``--obs`` artifacts; everything
downstream calibrates from that directory exactly like a user would.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TruncationRule, obs, st_3d_exp_problem
from repro.__main__ import main
from repro.analysis.ranks import paper_rank_model
from repro.core import tie_break_band, tune_band_size
from repro.matrix import BandTLRMatrix
from repro.obs.analytics import load_run, occupancy
from repro.runtime import (
    MeasuredRates,
    build_cholesky_graph,
    execute_graph_parallel,
)
from repro.runtime.simulator import simulate_schedule
from repro.tune import (
    Calibration,
    CandidateReport,
    TuneCandidate,
    TuneGrid,
    TuneResult,
    parse_grid,
    predicted_run,
    ranks_from_run,
    sweep,
)
from repro.tune.sweep import SCHEDULERS
from repro.utils import ConfigurationError

N, TILE, BAND, EPS = 256, 64, 1, 1e-6


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One real recorded band-1 run: (obs dir, pristine rank grid)."""
    problem = st_3d_exp_problem(N, TILE, seed=0)
    matrix = BandTLRMatrix.from_problem(
        problem, TruncationRule(eps=EPS), band_size=BAND
    )
    grid = matrix.rank_grid()
    graph = build_cholesky_graph(
        matrix.ntiles, BAND, TILE, lambda i, j: int(max(grid[i, j], 1))
    )
    meta = {
        "n": N, "tile": TILE, "band": BAND, "accuracy": EPS, "seed": 0,
        "workers": 2, "compression": "auto", "precision": "fp64",
        "batch": True,
    }
    with obs.observe(meta=meta) as ob:
        execute_graph_parallel(graph, matrix, n_workers=2)
    outdir = tmp_path_factory.mktemp("tune") / "run"
    ob.write(outdir)
    return outdir, grid


@pytest.fixture(scope="module")
def run(recorded):
    return load_run(recorded[0])


@pytest.fixture(scope="module")
def calibration(recorded, run):
    return Calibration.from_runs([run], sources=(str(recorded[0]),))


def synthetic_calibration(nt, tile, ranks_by_d, *, gflops=1.0):
    """A Calibration with constant rank per sub-diagonal and no
    measurements: every task costs its flops at ``gflops`` — Algorithm
    1's flop model."""
    grid = np.full((nt, nt), -1, dtype=np.int64)
    for d in range(1, nt):
        for j in range(nt - d):
            grid[j + d, j] = ranks_by_d[d]
    cal = Calibration(
        tile_size=tile,
        ntiles=nt,
        band_size=1,
        rank_grid=grid,
        rank_model=paper_rank_model(tile, accuracy=1e-8),
        rates=MeasuredRates(fallback_gflops=gflops),
        n_workers=2,
        meta={"n": nt * tile, "tile": tile, "accuracy": 1e-8, "seed": 0},
    )
    return cal, grid


# ---------------------------------------------------------------------------
# Calibration: rank recovery and rate fitting
# ---------------------------------------------------------------------------
class TestRanksFromRun:
    def test_recovers_rank_grid_exactly(self, run, recorded):
        """(4)-TRSM flops invert to the pristine per-tile ranks."""
        _, grid = recorded
        recovered = ranks_from_run(run)
        populated = recovered >= 0
        assert populated.any()
        assert np.array_equal(recovered[populated], grid[populated])

    def test_diagonal_and_upper_unpopulated(self, run):
        recovered = ranks_from_run(run)
        nt = recovered.shape[0]
        for i in range(nt):
            for j in range(i, nt):
                assert recovered[i, j] == -1

    def test_requires_graph_document(self, run):
        from repro.obs.analytics import RunTrace

        with pytest.raises(ConfigurationError):
            ranks_from_run(RunTrace(tasks=list(run.tasks), graph=None))


class TestRates:
    def test_recorded_geometry_replays_recorded_busy_time(self, run, calibration):
        """n_c tasks at the class mean sum to S_c: at the recorded
        geometry each class's simulated busy time is its recorded Σ
        durations."""
        graph = build_cholesky_graph(
            calibration.ntiles, BAND, TILE,
            calibration.rank_fn(calibration.ntiles),
        )
        sim = simulate_schedule(graph, rates=calibration.rates)
        recorded: dict[str, float] = {}
        for t in run.tasks:
            if t.kernel and t.flops > 0.0:
                recorded[t.kernel] = recorded.get(t.kernel, 0.0) + t.duration
        assert recorded
        busy = {k.value: s for k, s in sim.busy_by_kernel.items()}
        assert set(busy) == set(recorded)
        for kernel, secs in recorded.items():
            assert busy[kernel] == pytest.approx(secs, rel=1e-9)

    def test_unknown_class_falls_back_to_flops(self, calibration):
        rates = calibration.rates
        got = rates.seconds("(9)-NOSUCH", 2e9, TILE, 8)
        assert got == pytest.approx(2e9 / (rates.fallback_gflops * 1e9))

    def test_unrecorded_class_borrows_its_sibling(self):
        """A band-1 recording holds (6)-GEMM and (3)-SYRK only; the same
        kernels labelled (5)-GEMM and (3)-GEMM at wider bands replay
        them instead of the aggregate rate.  A recorded class is never
        overridden."""
        rates = MeasuredRates(
            durations={"(6)-GEMM": 2e-3, "(3)-SYRK": 1e-4, "(1)-POTRF": 5e-5},
            fallback_gflops=1.0,
        )
        assert rates.seconds("(5)-GEMM", 1e9, TILE, 8) == 2e-3
        assert rates.seconds("(3)-GEMM", 1e9, TILE, 8) == 1e-4
        assert rates.seconds("(1)-GEMM", 1e9, TILE, 8) == pytest.approx(1.0)
        both = MeasuredRates(
            durations={**rates.durations, "(5)-GEMM": 7e-4},
            fallback_gflops=1.0,
        )
        assert both.seconds("(5)-GEMM", 1e9, TILE, 8) == 7e-4
        assert both.seconds("(6)-GEMM", 1e9, TILE, 8) == 2e-3

    def test_pooling_identical_runs_keeps_durations(self, run):
        single = Calibration.from_runs([run]).rates
        pooled = Calibration.from_runs([run, run]).rates
        assert pooled.durations.keys() == single.durations.keys()
        for kernel, d in single.durations.items():
            assert pooled.durations[kernel] == pytest.approx(d)
        assert pooled.fallback_gflops == pytest.approx(single.fallback_gflops)


class TestCalibration:
    def test_geometry_fields(self, calibration):
        assert calibration.ntiles == N // TILE
        assert calibration.tile_size == TILE
        assert calibration.band_size == BAND
        assert calibration.meta["accuracy"] == EPS

    def test_geometry_mismatch_raises(self, run):
        import copy

        other = copy.deepcopy(run)
        other.graph["tile_size"] = TILE * 2
        with pytest.raises(ConfigurationError):
            Calibration.from_runs([run, other])

    def test_task_overhead_is_the_median_dispatch_gap(self, run):
        """Two workers, 1 ms tasks 50 us apart.  A worker that starts
        late or one long stall (a lock hand-off timeout, a neighbour on
        the core) moves the idle time per task, not the estimate."""
        from repro.obs.analytics import RunTrace, TaskSpan

        def worker(name, begin, stall_at=None):
            spans, t = [], begin
            for i in range(20):
                if i == stall_at:
                    t += 0.010
                spans.append(TaskSpan(f"{name}-{i}", t, t + 1e-3, name))
                t += 1e-3 + 50e-6
            return spans

        def overhead(tasks):
            trace = RunTrace(tasks=tasks, graph=run.graph, meta=run.meta)
            return Calibration.from_runs([trace]).task_overhead_s

        calm = worker("w0", 0.0) + worker("w1", 0.0)
        assert overhead(calm) == pytest.approx(50e-6)
        noisy = worker("w0", 0.0, stall_at=10) + worker("w1", 2e-3)
        assert overhead(noisy) == pytest.approx(50e-6)

    def test_rank_fn_exact_at_recorded_size(self, calibration, recorded):
        _, grid = recorded
        fn = calibration.rank_fn(calibration.ntiles)
        for i in range(calibration.ntiles):
            for j in range(i):
                assert fn(i, j) == max(grid[i, j], 1)

    def test_rank_grid_extrapolates_to_other_sizes(self, calibration):
        nt = calibration.ntiles + 3
        grid = calibration.rank_grid_for(nt)
        assert grid.shape == (nt, nt)
        assert (grid[np.tril_indices(nt, -1)] >= 1).all()


# ---------------------------------------------------------------------------
# The shared tie-break and flop-model agreement
# ---------------------------------------------------------------------------
class TestTieBreak:
    #: The pinned regression grid: tile 64, ranks decaying 40→2 with
    #: sub-diagonal distance — the paper's qualitative rank structure.
    KNOWN_RANKS = {1: 40, 2: 12, 3: 6, 4: 4, 5: 2}

    def test_smallest_band_wins(self):
        assert tie_break_band([3, 5, 2]) == 2

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            tie_break_band([])

    @staticmethod
    def flop_winner(cal, bands=None) -> int:
        """Algorithm 1's total-flop objective: the sweep over a
        calibration with no measurements, on one rank and one core."""
        grid = TuneGrid(bands=bands, schedulers=("priority",), cores=(1,))
        return sweep(cal, grid=grid).winner.candidate.band_size

    def test_known_grid_pins_band_two(self):
        """Regression: this grid must keep choosing band 2 — by
        Algorithm 1, by the full flop sweep, and over any band set."""
        cal, grid = synthetic_calibration(6, 64, self.KNOWN_RANKS)
        assert tune_band_size(grid, 64).band_size == 2
        assert tune_band_size(grid, 64).band_size_range == (2, 2)
        assert self.flop_winner(cal) == 2
        assert self.flop_winner(cal, tuple(range(1, 7))) == 2

    def test_equal_cost_bands_resolve_to_smallest(self):
        """With a core per ready task, bands 5 and 6 both run at the
        length of the same critical path, so their predicted makespans
        tie exactly; the shared rule resolves the tie downward."""
        cal, _ = synthetic_calibration(6, 64, self.KNOWN_RANKS)
        grid = TuneGrid(bands=(5, 6), schedulers=("priority",), cores=(16,))
        res = sweep(cal, grid=grid)
        assert res.candidates[0].makespan_s == res.candidates[1].makespan_s
        assert res.winner.candidate.band_size == 5

    def test_simulated_sort_key_applies_same_rule(self):
        """Equal-makespan candidates rank ascending by band — the sort
        key *is* tie_break_band applied through the ranking."""
        cands = [TuneCandidate(band_size=b) for b in (4, 2, 3)]
        ordered = sorted(cands, key=TuneCandidate.sort_key)
        assert ordered[0].band_size == tie_break_band([4, 2, 3])


class TestFlopSimulatedAgreement:
    """tune_band_size and the simulated sweep agree at small N.

    On one rank and one core with flat rates, simulated makespan is the
    graph's total work — the same objective Algorithm 1's flop model
    approximates.  In the regimes where the approximation is exact
    enough to matter (clearly-low ranks, paper-like decaying ranks) the
    two deciders must pick the same band.
    """

    def _winner(self, cal, bands):
        res = sweep(
            cal,
            grid=TuneGrid(bands=bands, schedulers=("priority",), cores=(1,)),
        )
        return res, res.winner.candidate.band_size

    def test_low_rank_regime_agrees_on_band_one(self):
        cal, grid = synthetic_calibration(5, 64, {d: 2 for d in range(1, 5)})
        bands = tuple(range(1, 6))
        _, winner = self._winner(cal, bands)
        assert winner == 1
        assert tune_band_size(grid, 64).band_size == 1

    def test_paper_regime_agrees_on_band_two(self):
        cal, grid = synthetic_calibration(6, 64, TestTieBreak.KNOWN_RANKS)
        bands = tuple(range(1, 7))
        res, winner = self._winner(cal, bands)
        assert winner == 2
        assert res.algorithm1_band == 2

    def test_single_core_makespan_is_total_work(self):
        """No idle time on one core: makespan == Σ flops / rate, so the
        simulated objective reduces to total flops exactly."""
        cal, _ = synthetic_calibration(5, 64, {d: 8 for d in range(1, 5)})
        res, _ = self._winner(cal, tuple(range(1, 6)))
        for rep in res.candidates:
            assert rep.makespan_s == pytest.approx(
                rep.total_flops / 1e9, rel=1e-9
            )


# ---------------------------------------------------------------------------
# Sweep: determinism, dominance, grid handling
# ---------------------------------------------------------------------------
class TestSweepDeterminism:
    def test_same_inputs_identical_json(self, calibration):
        a = sweep(calibration, smoke=True)
        b = sweep(calibration, smoke=True)
        assert a.to_json() == b.to_json()

    def test_worker_count_does_not_change_ranking(self, calibration):
        a = sweep(calibration, workers=1)
        b = sweep(calibration, workers=4)
        assert a.to_json() == b.to_json()

    def test_ranking_is_monotone_in_makespan(self, calibration):
        res = sweep(calibration)
        spans = [c.makespan_s for c in res.candidates]
        assert spans == sorted(spans)

    def test_smoke_trims_grid(self, calibration):
        full = sweep(calibration)
        smoke = sweep(calibration, smoke=True)
        assert len(smoke.candidates) <= len(full.candidates)
        assert all(
            c.candidate.scheduler in ("priority", "fifo")
            for c in smoke.candidates
        )

    def test_infeasible_bands_raise(self, calibration):
        with pytest.raises(ConfigurationError):
            sweep(calibration, grid=TuneGrid(bands=(99,)))

    def test_problem_document_carries_recorded_meta(self, calibration):
        res = sweep(calibration, smoke=True)
        assert res.problem["n"] == N
        assert res.problem["tile"] == TILE
        assert res.problem["accuracy"] == EPS

    def test_target_ntiles_switches_to_extrapolation(self, calibration):
        """Another tile count sweeps the rank model's extrapolated graph,
        priced by the same per-class durations."""
        nt = calibration.ntiles + 2
        res = sweep(
            calibration,
            ntiles=nt,
            grid=TuneGrid(bands=(1, 2), schedulers=("priority",)),
        )
        assert res.problem["n"] == nt * TILE
        graph = build_cholesky_graph(
            nt, 1, TILE, calibration.rank_fn(nt), fused=True
        )
        band1 = next(c for c in res.candidates if c.candidate.band_size == 1)
        assert band1.n_tasks == graph.n_tasks
        assert band1.total_flops == pytest.approx(graph.total_flops())


class TestWinnerDominance:
    @settings(max_examples=10, deadline=None)
    @given(
        bands=st.sets(
            st.integers(min_value=1, max_value=4), min_size=1, max_size=3
        ),
        scheds=st.sets(st.sampled_from(SCHEDULERS), min_size=1),
        cores=st.sets(
            st.integers(min_value=1, max_value=3), min_size=1, max_size=2
        ),
    )
    def test_winner_has_minimal_simulated_makespan(self, bands, scheds, cores):
        """Property: over any grid, the ranked winner dominates."""
        cal, _ = synthetic_calibration(4, 32, {1: 12, 2: 6, 3: 3})
        res = sweep(
            cal,
            grid=TuneGrid(
                bands=tuple(sorted(bands)),
                schedulers=tuple(s for s in SCHEDULERS if s in scheds),
                cores=tuple(sorted(cores)),
            ),
        )
        best = min(c.makespan_s for c in res.candidates)
        assert res.winner.makespan_s == best
        tied = [
            c.candidate
            for c in res.candidates
            if c.makespan_s == best
        ]
        assert res.winner.candidate.sort_key() == min(
            c.sort_key() for c in tied
        )


# ---------------------------------------------------------------------------
# Grid parsing and serialization
# ---------------------------------------------------------------------------
class TestParseGrid:
    def test_full_spec(self):
        grid = parse_grid("band=1,2,3;scheduler=priority,fifo;dist=band,2d;"
                          "ranks=1,2;cores=2,4")
        assert grid.bands == (1, 2, 3)
        assert grid.schedulers == ("priority", "fifo")
        assert grid.distributions == ("band", "2d")
        assert grid.ranks == (1, 2)
        assert grid.cores == (2, 4)

    def test_omitted_axes_keep_defaults(self):
        grid = parse_grid("band=2")
        assert grid.bands == (2,)
        assert grid.schedulers == SCHEDULERS
        assert grid.ranks == (1,)

    def test_unknown_axis_raises(self):
        with pytest.raises(ConfigurationError):
            parse_grid("bandwidth=3")

    def test_unknown_scheduler_raises(self):
        with pytest.raises(ConfigurationError):
            parse_grid("scheduler=magic")

    def test_malformed_part_raises(self):
        with pytest.raises(ConfigurationError):
            parse_grid("band")

    def test_empty_values_raise(self):
        with pytest.raises(ConfigurationError):
            parse_grid("band=")

    @pytest.mark.parametrize("spec", ["band=1,x", "ranks=two", "cores=2.5"])
    def test_non_integer_value_raises(self, spec):
        with pytest.raises(ConfigurationError, match="integers"):
            parse_grid(spec)

    def test_repeated_axis_raises(self):
        with pytest.raises(ConfigurationError, match="twice"):
            parse_grid("band=1;band=2")


class TestSerialization:
    def test_candidate_round_trip(self):
        c = TuneCandidate(band_size=3, scheduler="fifo", distribution="2d",
                          ranks=2, cores=4)
        assert TuneCandidate.from_dict(c.to_dict()) == c

    def test_report_round_trip(self):
        rep = CandidateReport(
            candidate=TuneCandidate(band_size=2),
            makespan_s=0.5, critical_path_s=0.3, mean_occupancy=0.8,
            bytes_sent=1024, messages=7, total_flops=1e9, n_tasks=20,
        )
        assert CandidateReport.from_dict(rep.to_dict()) == rep

    def test_result_json_round_trip(self, calibration):
        res = sweep(calibration, smoke=True)
        clone = TuneResult.from_json(res.to_json())
        assert clone.to_json() == res.to_json()
        assert clone.winner.candidate == res.winner.candidate

    def test_from_json_ignores_retired_rates_mode(self, calibration):
        doc = json.loads(sweep(calibration, smoke=True).to_json())
        doc["rates_mode"] = "mean-replay"
        doc["problem"]["compression"] = "rsvd"  # retired with the option
        clone = TuneResult.from_json(json.dumps(doc))
        assert "rates_mode" not in clone.to_json()
        assert "compression" not in clone.to_json()

    def test_config_names_every_execute_parameter(self, calibration):
        cfg = sweep(calibration, smoke=True).config()
        assert set(cfg) >= {
            "n", "tile", "band", "accuracy", "seed",
            "executor", "workers", "ranks", "scheduler",
        }
        assert cfg["n"] == N and cfg["tile"] == TILE

    def test_a_record_with_a_retired_precision_field_still_loads(
        self, recorded, calibration
    ):
        """ε alone fixes a factor's precision: a recorded run or a result
        that still carries a ``precision`` field is read past it, and
        nothing writes one."""
        meta = json.loads((recorded[0] / "summary.json").read_text())["meta"]
        assert meta["precision"] == "fp64"  # the recording under test
        res = sweep(calibration, smoke=True)
        assert "precision" not in res.problem
        assert "precision" not in res.config()
        doc = json.loads(res.to_json())
        doc["problem"]["precision"] = "adaptive"
        clone = TuneResult.from_json(json.dumps(doc))
        assert clone.config() == res.config()
        assert "precision" not in clone.to_json()

    def test_a_record_with_a_retired_batch_field_still_loads(
        self, recorded, calibration, tmp_path, capsys
    ):
        """Kernels run one task at a time: a recorded run, a result or an
        emitted config that still carries ``batch`` is read past it, and
        nothing writes one."""
        meta = json.loads((recorded[0] / "summary.json").read_text())["meta"]
        assert meta["batch"] is True  # the recording under test
        res = sweep(calibration, smoke=True)
        assert "batch" not in res.problem
        assert "batch" not in res.config()
        doc = json.loads(res.to_json())
        doc["problem"]["batch"] = True
        clone = TuneResult.from_json(json.dumps(doc))
        assert clone.config() == res.config()
        assert "batch" not in clone.to_json()
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**res.config(), "batch": True}))
        assert main(["execute", "--config", str(cfg)]) == 0
        assert main(["demo", "--config", str(cfg)]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Predicted traces
# ---------------------------------------------------------------------------
class TestPredictedRun:
    def _simulate(self, calibration, *, cores=2, collect_trace=True):
        graph = build_cholesky_graph(
            calibration.ntiles, 2, TILE, calibration.rank_fn(calibration.ntiles)
        )
        sim = simulate_schedule(
            graph, ranks=1, cores=cores, rates=calibration.rates,
            collect_trace=collect_trace,
        )
        return graph, sim

    def test_requires_trace(self, calibration):
        graph, sim = self._simulate(calibration, collect_trace=False)
        with pytest.raises(ValueError):
            predicted_run(graph, sim)

    def test_occupancy_stays_in_unit_interval(self, calibration):
        graph, sim = self._simulate(calibration, cores=2)
        run = predicted_run(graph, sim)
        occ = occupancy(run)
        assert 0.0 < occ.mean_occupancy <= 1.0 + 1e-9

    def test_core_slots_never_overlap(self, calibration):
        graph, sim = self._simulate(calibration, cores=2)
        run = predicted_run(graph, sim)
        by_thread: dict[str, list] = {}
        for t in run.tasks:
            by_thread.setdefault(t.thread, []).append(t)
        for spans in by_thread.values():
            spans.sort(key=lambda t: t.start)
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start + 1e-12

    def test_carries_graph_and_kernels(self, calibration):
        graph, sim = self._simulate(calibration)
        run = predicted_run(graph, sim)
        assert run.graph is not None
        assert run.graph["n_tasks"] == len(run.tasks) == graph.n_tasks
        assert all(t.kernel for t in run.tasks)
        assert run.meta["predicted"] is True


# ---------------------------------------------------------------------------
# CLI: exit codes, emitted config, bitwise reproduction
# ---------------------------------------------------------------------------
class TestCLI:
    def test_tune_from_run_smoke(self, recorded, tmp_path, capsys):
        outdir, _ = recorded
        cfg = tmp_path / "config.json"
        report = tmp_path / "report.json"
        rc = main([
            "tune", "--from-run", str(outdir), "--smoke",
            "--emit", str(cfg), "--report", str(report),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tuned BAND_SIZE" in out
        assert "Algorithm 1" in out
        doc = json.loads(cfg.read_text())
        assert doc["n"] == N and doc["tile"] == TILE
        ranked = TuneResult.from_json(report.read_text())
        assert ranked.winner.candidate.band_size == doc["band"]

    def test_config_round_trip_is_bitwise(self, recorded, tmp_path, capsys):
        """The emitted config reproduces the factorization bit-for-bit:
        two ``execute --config`` runs print the same factor digest."""
        outdir, _ = recorded
        cfg = tmp_path / "config.json"
        assert main([
            "tune", "--from-run", str(outdir), "--smoke",
            "--emit", str(cfg),
        ]) == 0
        capsys.readouterr()

        digests = []
        for _ in range(2):
            assert main(["execute", "--config", str(cfg)]) == 0
            out = capsys.readouterr().out
            line = next(
                ln for ln in out.splitlines() if ln.startswith("factor digest:")
            )
            digests.append(line.split(":", 1)[1].strip())
        assert digests[0] == digests[1]
        assert digests[0].startswith("sha256:")

    def test_missing_run_dir_exits_2(self, tmp_path, capsys):
        rc = main(["tune", "--from-run", str(tmp_path / "nope")])
        capsys.readouterr()
        assert rc == 2

    def test_bad_grid_exits_2(self, recorded, capsys):
        outdir, _ = recorded
        rc = main([
            "tune", "--from-run", str(outdir), "--grid", "warp=9",
        ])
        capsys.readouterr()
        assert rc == 2

    def test_non_integer_grid_exits_2(self, recorded, capsys):
        outdir, _ = recorded
        rc = main([
            "tune", "--from-run", str(outdir), "--grid", "band=1,x",
        ])
        assert "integers" in capsys.readouterr().err
        assert rc == 2

    def test_sim_calibrate_from_non_run_dir_exits_2(self, tmp_path, capsys):
        """The same check and message as ``tune --from-run``."""
        rc = main([
            "execute", "--n", "256", "--tile", "64", "--band", "1",
            "--executor", "sim", "--calibrate-from", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{tmp_path} is not an --obs run directory" in err

    def test_sim_calibrate_from_prices_with_the_calibration(
        self, recorded, calibration, tmp_path, capsys
    ):
        """``execute --executor sim --calibrate-from`` simulates with the
        calibration's durations *and* overhead and records its schedule
        as a standard trace of one span per task."""
        outdir, _ = recorded
        sim_dir = tmp_path / "sim"
        rc = main([
            "execute", "--n", str(N), "--tile", str(TILE), "--band", "1",
            "--executor", "sim", "--ranks", "1", "--calibrate-from",
            str(outdir), "--obs", str(sim_dir),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        line = next(ln for ln in out.splitlines() if "task overhead" in ln)
        assert float(line.split("|")[1]) == pytest.approx(
            calibration.task_overhead_s * 1e6, abs=0.1
        )
        predicted = load_run(sim_dir)
        assert len(predicted.tasks) == predicted.graph["n_tasks"] > 0
        assert main(["compare", str(sim_dir), str(outdir)]) in (0, 1)
        capsys.readouterr()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["execute", "--config", str(tmp_path / "none.json")])
        capsys.readouterr()
        assert rc == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        rc = main(["execute", "--config", str(bad)])
        capsys.readouterr()
        assert rc == 2

        bad.write_text("{not json")
        rc = main(["demo", "--config", str(bad)])
        capsys.readouterr()
        assert rc == 2

    def test_failed_verify_gate_exits_1(self, recorded, capsys):
        """Zero tolerance is unmeetable (real timings never exactly
        equal the prediction), so the gate must fail with exit 1."""
        outdir, _ = recorded
        rc = main([
            "tune", "--from-run", str(outdir), "--smoke",
            "--verify", "--tolerance", "0",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "FAIL" in err


# ---------------------------------------------------------------------------
# Prediction accuracy: the verify loop end to end
# ---------------------------------------------------------------------------
class TestPredictionAccuracy:
    def _record_and_verify(self, tmp_path, capsys, *, n, tile, eps):
        run_dir = tmp_path / "run"
        assert main([
            "execute", "--n", str(n), "--tile", str(tile), "--band", "1",
            "--accuracy", str(eps), "--workers", "2", "--obs", str(run_dir),
        ]) == 0
        capsys.readouterr()
        verify_dir = tmp_path / "verify"
        rc = main([
            "tune", "--from-run", str(run_dir), "--smoke", "--verify",
            "--verify-obs", str(verify_dir), "--report",
            str(tmp_path / "report.json"),
        ])
        out = capsys.readouterr().out
        return rc, out, verify_dir, tmp_path / "report.json"

    def test_smoke_scale_verify_loop_closes(self, tmp_path, capsys):
        """CI-scale variant of the integration loop: calibrate from a
        recorded run in the low-accuracy regime, tune, verify.  At this
        size the realized window is ~25 ms on two threads and the DES
        under-predicts it systematically (it credits two cores; two
        threads overlap nothing here), so what is asserted is that the
        loop closes and reports — the ``<= tolerance`` claim is the
        N = 1600 test's."""
        rc, out, verify_dir, report = self._record_and_verify(
            tmp_path, capsys, n=640, tile=64, eps=1e-3
        )
        assert rc in (0, 1)
        doc = TuneResult.from_json(report.read_text())
        assert doc.verify is not None
        assert math.isfinite(doc.verify["makespan_rel_err"])
        assert math.isfinite(doc.verify["tolerance"])
        assert doc.verify["gate_passed"] is (rc == 0)
        assert ("verify gate passed" in out) is (rc == 0)
        # both trace directories are standard --obs artifacts
        assert (verify_dir / "predicted" / "events.jsonl").exists()
        assert (verify_dir / "realized" / "events.jsonl").exists()
        # ... and repro compare re-runs the per-kernel rule standalone:
        # a verdict either way, never "not a run directory"
        assert main([
            "compare", str(verify_dir / "predicted"),
            str(verify_dir / "realized"),
        ]) in (0, 1)
        capsys.readouterr()

    @pytest.mark.slow
    def test_paper_scale_prediction_within_tolerance(self, tmp_path, capsys):
        """The integration gate at N=1600, b=100 (NT=16), using the
        documented two-step refinement: a band-1 run exposes every
        rank, a second run at the tuned band supplies the dense
        kernel-class rates the band-1 run never exercises, and the
        pooled calibration's prediction must land inside the documented
        tolerance."""
        run1 = tmp_path / "run-band1"
        assert main([
            "execute", "--n", "1600", "--tile", "100", "--band", "1",
            "--accuracy", "1e-3", "--workers", "2", "--obs", str(run1),
        ]) == 0
        capsys.readouterr()
        cfg = tmp_path / "config.json"
        assert main([
            "tune", "--from-run", str(run1), "--smoke", "--emit", str(cfg),
        ]) == 0
        capsys.readouterr()
        band = json.loads(cfg.read_text())["band"]
        run2 = tmp_path / "run-tuned"
        assert main([
            "execute", "--n", "1600", "--tile", "100", "--band", str(band),
            "--accuracy", "1e-3", "--workers", "2", "--obs", str(run2),
        ]) == 0
        capsys.readouterr()
        report = tmp_path / "report.json"
        rc = main([
            "tune", "--from-run", str(run1), "--from-run", str(run2),
            "--smoke", "--verify", "--report", str(report),
        ])
        capsys.readouterr()
        assert rc == 0
        doc = TuneResult.from_json(report.read_text())
        assert doc.verify["gate_passed"] is True
        assert abs(doc.verify["makespan_rel_err"]) <= doc.verify["tolerance"]
