"""Tests for the trace-analytics layer (:mod:`repro.obs.analytics`).

Covers: critical path on a synthetic DAG with a known answer, occupancy
fractions/timeline, flop-rate attribution against :class:`FlopCounter`
ground truth, the noise-aware trace diff (regression / no-regression /
noise cases), the events.jsonl + graph.json round trip, the
factorize-under-observe → analyze integration path, and the CLI
surface (``analyze`` and ``compare`` on --obs directories).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import TLRSolver, obs, st_3d_exp_problem
from repro.__main__ import main
from repro.linalg.flops import FlopCounter, KernelClass
from repro.obs.analytics import (
    RunTrace,
    TaskSpan,
    critical_path,
    flop_attribution,
    is_dependency_path,
    load_run,
    occupancy,
    render_analysis,
    render_diff,
    run_from_observation,
    trace_diff,
)


def _graph(tasks: dict[str, list[str]], kernels: dict | None = None) -> dict:
    kernels = kernels or {}
    return {
        "ntiles": None,
        "band_size": None,
        "tile_size": None,
        "n_tasks": len(tasks),
        "tasks": {
            name: {
                "kernel": kernels.get(name, "(1)-GEMM"),
                "flops": 0.0,
                "panel": 0,
                "out_tile": [0, 0],
                "deps": deps,
            }
            for name, deps in tasks.items()
        },
    }


def _span(name, start, end, thread="w0", kernel="(1)-GEMM", flops=0.0):
    return TaskSpan(
        name=name, start=start, end=end, thread=thread,
        kernel=kernel, flops=flops,
    )


def _diamond_run() -> RunTrace:
    """A -> {B, C} -> D with durations 1, 2, 5, 1: CP is A-C-D = 7."""
    tasks = [
        _span("A", 0.0, 1.0, "w0"),
        _span("B", 1.0, 3.0, "w0"),
        _span("C", 1.0, 6.0, "w1"),
        _span("D", 6.0, 7.0, "w0"),
    ]
    graph = _graph({"A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"]})
    return RunTrace(tasks=tasks, graph=graph, wall_s=7.0)


class TestCriticalPath:
    def test_known_chain(self):
        cp = critical_path(_diamond_run())
        assert cp.chain == ["A", "C", "D"]
        assert cp.length_s == pytest.approx(7.0)

    def test_is_valid_dependency_path(self):
        run = _diamond_run()
        cp = critical_path(run)
        assert is_dependency_path(run, cp.chain)
        assert not is_dependency_path(run, ["A", "D"])  # no direct edge
        assert not is_dependency_path(run, [])

    def test_bounds(self):
        run = _diamond_run()
        cp = critical_path(run)
        # CP <= wall and, for this serial-bottleneck DAG, CP >= wall / p.
        assert cp.length_s <= cp.wall_s
        assert cp.length_s >= cp.wall_s / cp.n_workers
        assert cp.parallelism == pytest.approx(9.0 / 7.0)
        assert cp.chain_fraction == pytest.approx(1.0)

    def test_chain_tasks_only_observed(self):
        """Graph tasks without a span (skipped/resumed) are excluded."""
        run = _diamond_run()
        run.graph["tasks"]["E"] = {
            "kernel": "(1)-GEMM", "flops": 0.0, "panel": 0,
            "out_tile": [0, 0], "deps": ["D"],
        }
        cp = critical_path(run)
        assert "E" not in cp.chain

    def test_retried_task_durations_sum(self):
        run = _diamond_run()
        run.tasks.append(_span("C", 7.0, 9.0, "w1"))  # retry attempt
        cp = critical_path(run)
        assert cp.length_s == pytest.approx(9.0)

    def test_no_graph_raises(self):
        run = RunTrace(tasks=[_span("A", 0, 1)], graph=None, wall_s=1.0)
        with pytest.raises(ValueError, match="no recorded dependency graph"):
            critical_path(run)

    def test_cycle_raises(self):
        run = _diamond_run()
        run.graph["tasks"]["A"]["deps"] = ["D"]
        with pytest.raises(ValueError, match="cyclic"):
            critical_path(run)


class TestOccupancy:
    def test_fractions(self):
        run = _diamond_run()
        occ = occupancy(run, buckets=7)
        assert occ.fractions["w0"] == pytest.approx(4.0 / 7.0)
        assert occ.fractions["w1"] == pytest.approx(5.0 / 7.0)
        assert occ.mean_occupancy == pytest.approx(4.5 / 7.0)

    def test_timeline_conservation(self):
        """Bucketed busy-worker counts integrate back to total busy time."""
        run = _diamond_run()
        occ = occupancy(run, buckets=14)
        dt = occ.wall_s / 14
        assert sum(v * dt for v in occ.timeline) == pytest.approx(run.busy_s)

    def test_timeline_peak(self):
        run = _diamond_run()
        occ = occupancy(run, buckets=7)
        # Both workers busy during (1, 3): buckets 1 and 2 read 2.0.
        assert occ.timeline[1] == pytest.approx(2.0)
        assert occ.timeline[2] == pytest.approx(2.0)

    def test_empty_run(self):
        occ = occupancy(RunTrace(tasks=[], graph=None, wall_s=0.0))
        assert occ.mean_occupancy == 0.0


class TestFlopAttribution:
    def test_against_flop_counter(self):
        """Span-attributed per-class flops equal FlopCounter ground truth."""
        counter = FlopCounter()
        spans = []
        t = 0.0
        for i, (kc, flops) in enumerate(
            [(KernelClass.POTRF_DENSE, 100.0),
             (KernelClass.GEMM_LR, 500.0),
             (KernelClass.GEMM_LR, 300.0),
             (KernelClass.TRSM_DENSE, 50.0)]
        ):
            counter.add(kc, flops)
            spans.append(
                _span(f"t{i}", t, t + 1.0, kernel=kc.value, flops=flops)
            )
            t += 1.0
        run = RunTrace(tasks=spans, graph=None, wall_s=t)
        rates = flop_attribution(run)
        for kc, total in counter.per_class.items():
            assert rates[kc.value].flops == pytest.approx(total)
        assert rates[KernelClass.GEMM_LR.value].tasks == 2
        # 800 flops over 2 measured seconds.
        assert rates[KernelClass.GEMM_LR.value].gflops == pytest.approx(
            800.0 / 2.0 / 1e9
        )

    def test_dense_band_split(self):
        from repro.obs.analytics import dense_lowrank_split

        run = RunTrace(
            tasks=[
                _span("a", 0, 1, kernel="(1)-POTRF"),
                _span("b", 1, 4, kernel="(6)-GEMM"),
            ],
            graph=None,
            wall_s=4.0,
        )
        dense, lowrank = dense_lowrank_split(flop_attribution(run))
        assert dense == pytest.approx(1.0)
        assert lowrank == pytest.approx(3.0)

    def test_unlabelled_grouped(self):
        run = RunTrace(
            tasks=[_span("a", 0, 1, kernel=None)], graph=None, wall_s=1.0
        )
        rates = flop_attribution(run)
        assert "(unlabelled)" in rates


def _kernel_run(gemm_scale: float = 1.0, jitter: float = 0.0) -> RunTrace:
    """Many GEMM/TRSM task spans with controllable GEMM duration."""
    rng = np.random.default_rng(0)
    tasks = []
    t = 0.0
    for i in range(20):
        d = 0.010 * gemm_scale + (rng.uniform(-jitter, jitter) if jitter else 0)
        tasks.append(_span(f"GEMM_{i}", t, t + d, kernel="(6)-GEMM"))
        t += d
        tasks.append(_span(f"TRSM_{i}", t, t + 0.005, kernel="(4)-TRSM"))
        t += 0.005
    return RunTrace(tasks=tasks, graph=None, wall_s=t)


class TestTraceDiff:
    def test_no_regression_identical(self):
        diff = trace_diff(_kernel_run(), _kernel_run())
        assert not diff.has_regression
        assert not diff.only_in_base and not diff.only_in_head

    def test_injected_gemm_slowdown_flags_exactly_gemm(self):
        """A 3x-slowed GEMM kernel flags the GEMM class and nothing else."""
        diff = trace_diff(_kernel_run(), _kernel_run(gemm_scale=3.0))
        assert diff.has_regression
        assert [d.kernel for d in diff.regressions] == ["(6)-GEMM"]
        gemm = next(d for d in diff.kernels if d.kernel == "(6)-GEMM")
        assert gemm.ratio == pytest.approx(3.0, rel=1e-6)

    def test_noise_suppresses_small_delta(self):
        """A delta inside the IQR never gates, whatever its ratio."""
        base = _kernel_run(jitter=0.009)
        head = _kernel_run(gemm_scale=1.4, jitter=0.009)
        diff = trace_diff(base, head, threshold=0.25)
        gemm = next(d for d in diff.kernels if d.kernel == "(6)-GEMM")
        grow = gemm.head.median_s - gemm.base.median_s
        assert grow <= max(gemm.base.iqr_s, gemm.head.iqr_s)
        assert not gemm.regressed

    def test_below_threshold_and_improvement_never_gate(self):
        """Growth beyond the (zero) IQR but under the threshold is not a
        regression; a 3x speed-up is reported as improved, not gated."""
        slower = trace_diff(_kernel_run(), _kernel_run(gemm_scale=1.2))
        assert not slower.has_regression
        faster = trace_diff(_kernel_run(gemm_scale=3.0), _kernel_run())
        assert not faster.has_regression
        gemm = next(d for d in faster.kernels if d.kernel == "(6)-GEMM")
        assert gemm.improved

    def test_structural_diff(self):
        base = _diamond_run()
        head = _diamond_run()
        head.tasks = [t for t in head.tasks if t.name != "D"]
        diff = trace_diff(base, head)
        assert diff.only_in_base == ["D"]
        assert diff.only_in_head == []

    def test_render_diff(self):
        text = render_diff(trace_diff(_kernel_run(), _kernel_run(3.0)))
        assert "REGRESSED" in text
        assert "(6)-GEMM" in text


class TestRoundTrip:
    def test_load_run_from_written_observation(self, tmp_path):
        ob = obs.Observation(meta={"who": "test"})
        with ob.tracer.span("GEMM_1", "task", kernel="(6)-GEMM", flops=42.0):
            pass
        with ob.tracer.span("setup", "phase"):  # non-task: excluded
            pass
        ob.graph = _graph({"GEMM_1": []})
        ob.write(tmp_path)
        run = load_run(tmp_path)
        assert len(run.tasks) == 1
        assert run.tasks[0].kernel == "(6)-GEMM"
        assert run.tasks[0].flops == pytest.approx(42.0)
        assert run.graph["tasks"]["GEMM_1"]["deps"] == []
        assert run.meta == {"who": "test"}

    def test_load_run_accepts_artifact_file(self, tmp_path):
        ob = obs.Observation()
        with ob.tracer.span("A", "task"):
            pass
        ob.write(tmp_path)
        run = load_run(tmp_path / "events.jsonl")
        assert len(run.tasks) == 1

    def test_band_tuning_cost_survives_the_round_trip(self, tmp_path):
        ob = obs.Observation()
        with ob.tracer.span("autotune_band", "phase") as span:
            span.set(band_size=3, tiles_probed=9, tiles_discarded=4)
        ob.write(tmp_path)
        for run in (load_run(tmp_path), run_from_observation(ob)):
            (tuning,) = run.tunings
            assert tuning["band_size"] == 3 and tuning["seconds"] >= 0.0
            assert (
                "band 3 in 0.000 s: 9 tiles probed, 4 compressions discarded"
                in render_analysis(run)
            )

    def test_deferred_generation_is_booked_apart_from_gemm(self, tmp_path):
        """A ``defer=True`` assembly moves tile generation into the GEMM
        tasks: each gets its own ``generate`` span under the task's, the
        ``assemble`` span says how many tiles it left and how many of
        column 0 it built dense, the ``tlr_cholesky`` span how many of the
        pending ones were born dense, and the report prints all three."""
        from repro import TruncationRule, st_3d_exp_problem
        from repro.core import tlr_cholesky
        from repro.matrix import BandTLRMatrix

        problem = st_3d_exp_problem(400, 100, seed=3)
        with obs.observe() as ob:
            m = BandTLRMatrix.from_problem(
                problem, TruncationRule(eps=1e-4), 1, defer=True
            )
            tlr_cholesky(m, n_workers=2)
        generate = [s for s in ob.tracer.spans if s.name == "generate"]
        assert {s.category for s in generate} == {"assembly"}
        assert sorted(s.parent for s in generate) == [
            "GEMM_2_1_0", "GEMM_3_1_0", "GEMM_3_2_1"
        ]
        assert {
            c.labels["format"]: c.value
            for c in ob.metrics.find("assembly_tiles")
        } == {"dense": 6, "lowrank": 1, "pending": 3}  # (1, 0), (2, 0) born dense
        ob.write(tmp_path)
        for run in (load_run(tmp_path), run_from_observation(ob)):
            assert run.deferred["tiles"] == run.deferred["generated"] == 3
            assert run.deferred["born_dense"] == 2
            assert run.deferred["assembled_dense"] == 2
            text = render_analysis(run)
            assert (
                "3 pending: 2 born dense, 1 compressed; 3 generated inside "
                "GEMM tasks in" in text
            )
            assert "2 more born dense at assembly (column 0)" in text

    def test_born_dense_count_matches_the_factorization_report(self):
        """A step under the previous factor's map: the pending tiles it
        marks are born dense without a compression, and the span, the
        trace and ``FactorizationReport.tiles_densified_online`` agree."""
        from repro import TruncationRule, st_3d_exp_problem
        from repro.core import tlr_cholesky
        from repro.matrix import BandTLRMatrix

        problem = st_3d_exp_problem(400, 100, seed=3)
        rule = TruncationRule(eps=1e-4)
        first = BandTLRMatrix.from_problem(problem, rule, 1, defer=True)
        tlr_cholesky(first)
        with obs.observe() as ob:
            m = BandTLRMatrix.from_problem(
                problem, rule, 1, defer=first.dense_map()
            )
            report = tlr_cholesky(m)
        assert report.tiles_densified_online == 2
        (assemble,) = [s for s in ob.tracer.spans if s.name == "assemble"]
        assert assemble.attrs["tiles_deferred"] == 3
        assert assemble.attrs["tiles_born_dense"] == 2
        (factorize,) = [s for s in ob.tracer.spans if s.name == "tlr_cholesky"]
        assert factorize.attrs["tiles_born_dense"] == 2
        assert run_from_observation(ob).deferred["born_dense"] == 2

    def test_load_run_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="events.jsonl"):
            load_run(tmp_path)

    def test_graph_json_written_only_with_graph(self, tmp_path):
        ob = obs.Observation()
        paths = ob.write(tmp_path / "a")
        assert "graph" not in paths
        ob2 = obs.Observation()
        ob2.graph = _graph({"A": []})
        paths2 = ob2.write(tmp_path / "b")
        assert json.loads(paths2["graph"].read_text())["n_tasks"] == 1


@pytest.mark.slow
class TestIntegration:
    """Factorize under observe → analyze, both executors."""

    @pytest.fixture(scope="class")
    def observed_run(self, tmp_path_factory):
        problem = st_3d_exp_problem(n=512, tile_size=64)
        with obs.observe(meta={"case": "analytics-int"}) as ob:
            solver = TLRSolver.from_problem(
                problem, accuracy=1e-6, band_size=2
            )
            solver.factorize(n_workers=2)
        outdir = tmp_path_factory.mktemp("obsrun")
        ob.write(outdir)
        return ob, outdir

    def test_live_and_loaded_agree(self, observed_run):
        ob, outdir = observed_run
        live = run_from_observation(ob)
        loaded = load_run(outdir)
        assert len(live.tasks) == len(loaded.tasks)
        assert {t.name for t in live.tasks} == {t.name for t in loaded.tasks}
        assert live.graph == loaded.graph

    def test_critical_path_valid_and_bounded(self, observed_run):
        _, outdir = observed_run
        run = load_run(outdir)
        cp = critical_path(run)
        assert cp.chain, "critical path must be non-empty"
        assert is_dependency_path(run, cp.chain)
        assert 0.0 < cp.length_s <= cp.wall_s + 1e-9
        # Graham: the task window cannot beat max(CP, busy/p).
        assert cp.window_s >= cp.length_s - 1e-9
        assert cp.window_s >= cp.busy_s / cp.n_workers - 1e-9

    def test_every_task_span_annotated(self, observed_run):
        _, outdir = observed_run
        run = load_run(outdir)
        valid = {k.value for k in KernelClass}
        assert run.tasks
        for t in run.tasks:
            assert t.kernel in valid
            assert t.flops > 0.0
        # Every observed task is in the exported graph and vice versa.
        assert {t.name for t in run.tasks} == set(run.graph["tasks"])

    def test_attributed_flops_match_graph(self, observed_run):
        _, outdir = observed_run
        run = load_run(outdir)
        rates = flop_attribution(run)
        by_class: dict[str, float] = {}
        for info in run.graph["tasks"].values():
            by_class[info["kernel"]] = by_class.get(info["kernel"], 0) \
                + info["flops"]
        for kernel, total in by_class.items():
            assert rates[kernel].flops == pytest.approx(total, rel=1e-9)

    def test_sequential_graph_executor_also_annotates(self):
        from repro import TruncationRule
        from repro.matrix import BandTLRMatrix
        from repro.runtime import build_cholesky_graph
        from repro.runtime.executor import execute_graph

        problem = st_3d_exp_problem(n=256, tile_size=64)
        matrix = BandTLRMatrix.from_problem(
            problem, TruncationRule(eps=1e-6), band_size=2
        )
        grid = matrix.rank_grid()
        graph = build_cholesky_graph(
            matrix.ntiles, matrix.band_size, matrix.desc.tile_size,
            lambda i, j: int(max(grid[i, j], 1)),
        )
        with obs.observe() as ob:
            execute_graph(graph, matrix)
        run = run_from_observation(ob)
        assert run.graph is not None
        assert len(run.tasks) == len(run.graph["tasks"])
        cp = critical_path(run)
        assert is_dependency_path(run, cp.chain)
        # One thread executed everything, so CP <= busy == window.
        assert run.n_workers == 1
        assert cp.length_s <= run.busy_s + 1e-9

    def test_render_analysis_smoke(self, observed_run):
        _, outdir = observed_run
        text = render_analysis(load_run(outdir))
        assert "critical path" in text
        assert "worker occupancy" in text
        assert "Gflop/s" in text


class TestCLI:
    def _write_run(self, outdir, gemm_scale=1.0):
        run = _kernel_run(gemm_scale=gemm_scale)
        ob = obs.Observation()
        # Synthesize the artifacts directly from the RunTrace.
        lines = [
            json.dumps({
                "type": "span", "name": t.name, "cat": "task",
                "start": t.start, "end": t.end, "thread": t.thread,
                "depth": 0, "parent": None,
                "attrs": {"kernel": t.kernel, "flops": t.flops},
            })
            for t in run.tasks
        ]
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "events.jsonl").write_text("\n".join(lines) + "\n")
        (outdir / "summary.json").write_text(json.dumps(
            {"meta": {}, "wall_s": run.wall_s}
        ))
        del ob
        return outdir

    def test_analyze_cli(self, tmp_path, capsys):
        d = self._write_run(tmp_path / "run")
        rc = main(["analyze", str(d), "--width", "100", "--buckets", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "worker occupancy" in out
        assert "(no dependency graph recorded" in out

    def test_compare_cli_identical_ok(self, tmp_path, capsys):
        a = self._write_run(tmp_path / "a")
        b = self._write_run(tmp_path / "b")
        rc = main(["compare", str(a), str(b)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no regression" in out

    def test_compare_cli_flags_injected_gemm(self, tmp_path, capsys):
        a = self._write_run(tmp_path / "a")
        b = self._write_run(tmp_path / "b", gemm_scale=3.0)
        rc = main(["compare", str(a), str(b)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REGRESSION" in out
        assert "(6)-GEMM" in out
        assert "(4)-TRSM" not in out.split("REGRESSION")[-1]

    def test_compare_cli_bad_paths(self, tmp_path, capsys):
        rc = main(["compare", str(tmp_path / "x"), str(tmp_path / "y")])
        assert rc == 2
        # a file is not an --obs directory either: same exit code, one
        # typed message and nothing on stdout, whichever side it is on
        run = self._write_run(tmp_path / "run")
        hist = tmp_path / "a.jsonl"
        hist.write_text('{"name": "factorize_seq", "median_s": 0.05}\n')
        capsys.readouterr()
        for pair in ((hist, hist), (run, hist), (hist, run)):
            assert main(["compare", *map(str, pair)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {hist} is not an --obs run directory "
                f"(no events.jsonl)\n"
            )
