"""The observability layer: tracer, metrics, exporters, reports, CLI."""

import json
import threading

import pytest

from repro import TruncationRule, obs
from repro.matrix import BandTLRMatrix
from repro.obs import MetricsRegistry, Observation, Tracer
from repro.obs.exporters import prometheus_text, write_chrome_trace
from repro.obs.report import load_summary, render_report
from repro.obs.tracer import NULL_SPAN


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_records_interval(self):
        tr = Tracer()
        with tr.span("work", "phase", size=3):
            pass
        (rec,) = tr.spans
        assert rec.name == "work"
        assert rec.category == "phase"
        assert rec.attrs == {"size": 3}
        assert rec.end >= rec.start >= 0.0
        assert rec.duration == rec.end - rec.start

    def test_nesting_depth_and_parent(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        inner, outer = tr.spans  # inner closes first
        assert inner.name == "inner"
        assert inner.depth == 1 and inner.parent == "outer"
        assert outer.depth == 0 and outer.parent is None

    def test_stack_unwinds_on_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("outer"):
                with tr.span("inner"):
                    raise RuntimeError("boom")
        # Both spans recorded and the per-thread stack is empty again.
        assert [r.name for r in tr.spans] == ["inner", "outer"]
        with tr.span("after"):
            pass
        assert tr.spans[-1].depth == 0

    def test_thread_attribution(self):
        tr = Tracer()

        def work():
            with tr.span("task", "task"):
                pass

        threads = [
            threading.Thread(target=work, name=f"obs-worker-{i}")
            for i in range(3)
        ]
        with tr.span("main_span"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        names = {rec.thread for rec in tr.spans}
        assert {"obs-worker-0", "obs-worker-1", "obs-worker-2"} <= names
        assert all(rec.thread_id != 0 for rec in tr.spans)
        assert set(tr.threads()) == names

    def test_events_and_by_category(self):
        tr = Tracer()
        with tr.span("a", "x"):
            pass
        with tr.span("b", "x"):
            pass
        tr.event("marker", "notes", detail=1)
        count, total = tr.by_category()["x"]
        assert count == 2 and total >= 0.0
        (ev,) = tr.events
        assert ev.name == "marker" and ev.attrs == {"detail": 1}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_identity(self):
        reg = MetricsRegistry()
        reg.counter("flops", kernel="(1)-GEMM").inc(10.0)
        reg.counter("flops", kernel="(1)-GEMM").inc(5.0)
        reg.counter("flops", kernel="(6)-GEMM").inc(1.0)
        c = reg.counter("flops", kernel="(1)-GEMM")
        assert c.value == 15.0 and c.increments == 2
        assert len(reg.find("flops")) == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_gauge_watermarks(self):
        reg = MetricsRegistry()
        g = reg.gauge("level")
        for v in (3.0, 7.0, 2.0):
            g.set(v)
        assert (g.value, g.min, g.max) == (2.0, 2.0, 7.0)

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("rank", stage="assembly")
        for v in [4, 4, 8, 16]:
            h.observe(v)
        assert h.count == 4 and h.sum == 32.0
        assert h.value_counts() == {4.0: 2, 8.0: 1, 16.0: 1}
        assert h.bucket_counts([4, 8, 16]) == [2, 3, 4]  # cumulative
        assert h.percentile(100) == 16
        snap = h.snapshot()
        assert snap["count"] == 4 and snap["counts"] == {"4": 2, "8": 1, "16": 1}

    def test_series_uses_registry_clock(self):
        reg = MetricsRegistry()
        s = reg.series("depth")
        s.sample(1)
        s.sample(2)
        (t1, v1), (t2, v2) = s.samples
        assert 0.0 <= t1 <= t2 and (v1, v2) == (1.0, 2.0)

    def test_thread_safe_aggregation(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(500):
                reg.counter("hits").inc()
                reg.histogram("vals").observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hits").value == 4000
        assert reg.histogram("vals").count == 4000

    def test_snapshot_groups_by_kind(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1)
        reg.histogram("h").observe(1)
        reg.series("s").sample(1)
        snap = reg.snapshot()
        assert [len(snap[k]) for k in ("counters", "gauges", "histograms", "series")] == [1, 1, 1, 1]
        json.dumps(snap)  # JSON-serializable end to end


# ----------------------------------------------------------------------
# Module-level helpers / disabled path
# ----------------------------------------------------------------------
class TestActiveObservation:
    def test_disabled_is_noop(self):
        assert not obs.enabled()
        assert obs.active() is None
        # The disabled span is the shared singleton — no allocation.
        assert obs.span("anything", "x", a=1) is NULL_SPAN
        assert obs.span("other") is NULL_SPAN
        # Metric helpers silently drop.
        obs.counter_add("c", 1)
        obs.gauge_set("g", 1)
        obs.histogram_observe("h", 1)
        obs.sample("s", 1)
        obs.event("e")
        obs.kernel_observed("(1)-GEMM", 100.0)
        obs.pool_observed(None, pool="x")

    def test_observe_installs_and_restores(self):
        with obs.observe(meta={"k": "v"}) as run:
            assert obs.enabled() and obs.active() is run
            with obs.span("phase1", "phase"):
                obs.counter_add("c", 2, kind="a")
        assert not obs.enabled()
        assert run.meta == {"k": "v"}
        assert [r.name for r in run.tracer.spans] == ["phase1"]
        assert run.metrics.counter("c", kind="a").value == 2
        assert run.wall_s > 0

    def test_observe_nests_innermost_wins(self):
        with obs.observe() as outer:
            with obs.observe() as inner:
                obs.counter_add("c", 1)
            obs.counter_add("c", 10)
        assert inner.metrics.counter("c").value == 1
        assert outer.metrics.counter("c").value == 10

    def test_kernel_observed_shape(self):
        with obs.observe() as run:
            obs.kernel_observed("(6)-GEMM", 123.0)
            obs.kernel_observed("(6)-GEMM", 7.0)
        assert run.metrics.counter("kernel_flops", kernel="(6)-GEMM").value == 130.0
        assert run.metrics.counter("kernel_invocations", kernel="(6)-GEMM").value == 2


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def _observation(self):
        run = Observation(meta={"case": "unit"})
        with run.tracer.span("outer", "phase", n=2):
            with run.tracer.span("inner", "task"):
                pass
        run.tracer.event("tick", "notes")
        run.metrics.counter("kernel_flops", kernel="(1)-GEMM").inc(100.0)
        run.metrics.gauge("makespan_s", executor="parallel").set(1.5)
        for v in (4, 8, 8):
            run.metrics.histogram("tile_rank", stage="assembly").observe(v)
        run.metrics.series("memory_elements").sample(10)
        return run

    def test_chrome_trace_from_tracer(self, tmp_path):
        run = self._observation()
        out = write_chrome_trace(run.tracer, tmp_path / "trace")
        doc = json.loads(out.read_text())
        assert out.name == "trace.json"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "i"} <= phases
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"outer", "inner"}
        assert all(e["dur"] >= 0 for e in spans)

    def test_chrome_trace_from_result_object(self, tmp_path):
        class FakeResult:
            trace = [(("GEMM", 1, 0, 0), 0, 0.0, 1.0), (("POTRF", 0), 0, 1.0, 2.0)]
            makespan = 2.0
            nodes = 1
            cores_per_node = 1

        out = write_chrome_trace(FakeResult(), tmp_path / "t.json")
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) == 2
        assert doc["otherData"]["makespan_s"] == 2.0

        class NoTrace:
            trace = None

        with pytest.raises(ValueError):
            write_chrome_trace(NoTrace(), tmp_path / "n.json")

    def test_events_jsonl_roundtrip(self, tmp_path):
        run = self._observation()
        out = obs.write_events_jsonl(run.tracer, tmp_path / "events.jsonl")
        records = [json.loads(line) for line in out.read_text().splitlines()]
        kinds = [r["type"] for r in records]
        assert kinds.count("span") == 2 and kinds.count("event") == 1
        inner = next(r for r in records if r["name"] == "inner")
        assert inner["depth"] == 1 and inner["parent"] == "outer"

    def test_prometheus_text_format(self):
        run = self._observation()
        text = prometheus_text(run.metrics)
        assert "# TYPE repro_kernel_flops_total counter" in text
        assert 'repro_kernel_flops_total{kernel="(1)-GEMM"} 100' in text
        assert 'repro_makespan_s{executor="parallel"} 1.5' in text
        # Histogram: cumulative buckets + +Inf + sum/count.
        assert 'repro_tile_rank_bucket{stage="assembly",le="4"} 1' in text
        assert 'repro_tile_rank_bucket{stage="assembly",le="8"} 3' in text
        assert 'repro_tile_rank_bucket{stage="assembly",le="+Inf"} 3' in text
        assert 'repro_tile_rank_count{stage="assembly"} 3' in text
        # Series exports its last sample as a gauge.
        assert "repro_memory_elements 10" in text

    def test_write_summary_and_report_render(self, tmp_path):
        run = self._observation()
        paths = run.write(tmp_path / "run")
        assert sorted(p.name for p in paths.values()) == [
            "events.jsonl", "metrics.prom", "summary.json", "trace.json",
        ]
        summary = load_summary(tmp_path / "run")
        assert summary["meta"] == {"case": "unit"}
        assert summary["spans"]["count"] == 2
        text = render_report(summary)
        for section in ("repro run report", "time by span category",
                        "modelled flops", "rank spectrum", "memory"):
            assert section in text

    def test_load_summary_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_summary(tmp_path / "nope")


# ----------------------------------------------------------------------
# Integration: a real factorization under observation
# ----------------------------------------------------------------------
class TestFactorizationTelemetry:
    @pytest.fixture(scope="class")
    def observed_run(self, small_problem):
        from repro import TLRSolver

        # ε = 1e-4 keeps low-rank tiles: the deferred build births a tile
        # of rank ≥ b/3 dense, which at 1e-8 is every off-band tile here
        with obs.observe(meta={"case": "integration"}) as run:
            solver = TLRSolver.from_problem(
                small_problem, accuracy=1e-4, band_size=2
            )
            solver.factorize(n_workers=2)
        return run, solver

    def test_kernel_flops_match_report(self, observed_run):
        run, solver = observed_run
        total = sum(c.value for c in run.metrics.find("kernel_flops"))
        assert total == pytest.approx(solver.report.counter.total)
        calls = sum(c.value for c in run.metrics.find("kernel_invocations"))
        assert calls > 0
        # Every flop-counter class that fired has a matching invocation count.
        flop_kernels = {c.labels["kernel"] for c in run.metrics.find("kernel_flops")}
        call_kernels = {c.labels["kernel"]
                        for c in run.metrics.find("kernel_invocations")}
        assert flop_kernels == call_kernels

    def test_rank_spectrum_stages(self, observed_run):
        run, solver = observed_run
        stages = {h.labels["stage"] for h in run.metrics.find("tile_rank")}
        assert {"assembly", "compress", "factorized"} <= stages
        from repro.linalg.tiles import LowRankTile

        final = run.metrics.histogram("tile_rank", stage="factorized")
        ranks = [t.rank for t in solver.matrix.tiles.values()
                 if isinstance(t, LowRankTile)]
        assert final.count == len(ranks)
        assert max(final.values) == max(ranks)

    def test_spans_cover_pipeline(self, observed_run):
        run, _ = observed_run
        cats = run.tracer.by_category()
        assert {"phase", "task", "assembly"} <= set(cats)
        names = {r.name for r in run.tracer.spans}
        assert {"from_problem", "assemble", "tlr_cholesky"} <= names
        # Parallel tasks actually ran on the worker threads.
        task_threads = {r.thread for r in run.tracer.spans
                        if r.category == "task"}
        assert len(task_threads) >= 1

    def test_memory_and_executor_metrics(self, observed_run):
        run, _ = observed_run
        assert run.metrics.series("memory_elements").samples
        assert run.metrics.gauge(
            "memory_peak_elements", stat="tiles").value > 0
        occ = run.metrics.find("worker_occupancy")
        assert len(occ) == 2 and all(0 <= g.value <= 1.0 for g in occ)
        assert run.metrics.counter(
            "tasks_executed", executor="parallel").value > 0
        assert run.metrics.counter(
            "workpool_items", label="build_tile").value > 0

    def test_disabled_run_records_nothing(self, small_problem):
        probe = Observation()
        matrix = BandTLRMatrix.from_problem(
            small_problem, TruncationRule(eps=1e-8), band_size=2
        )
        from repro.core import tlr_cholesky

        tlr_cholesky(matrix)
        # Nothing leaked into a non-installed observation.
        assert not probe.tracer.spans
        assert not probe.metrics.all()
        assert not obs.enabled()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_execute_obs_then_report(self, tmp_path, capsys):
        from repro.__main__ import main

        outdir = tmp_path / "run"
        rc = main([
            "execute", "--n", "400", "--tile", "100", "--band", "2",
            "--workers", "2", "--obs", str(outdir),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "observability artifacts" in out
        assert (outdir / "summary.json").exists()
        assert (outdir / "metrics.prom").exists()

        rc = main(["report", str(outdir), "--width", "72"])
        assert rc == 0
        report = capsys.readouterr().out
        assert "modelled flops by kernel class" in report
        assert "rank spectrum" in report
        assert "dense-band" in report  # the dense-vs-LR split line

    def test_report_missing_dir_raises(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(FileNotFoundError):
            main(["report", str(tmp_path / "absent")])
