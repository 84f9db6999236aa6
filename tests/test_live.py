"""The live monitoring plane: aggregator, SLOs, HTTP endpoints, top.

The hammer tests pin the two accounting invariants the hot path relies
on: with big-enough rings **no increment is ever lost**, and when rings
do overflow the drop counter is **monotone and exact** — events are
either folded or counted as dropped, never silently gone.
"""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    LiveAggregator,
    MonitoringServer,
    Slo,
    parse_prometheus_text,
    parse_slo,
    render_top,
    run_top,
    snapshot_prometheus_text,
)


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5.0) as r:
            return r.status, r.read().decode(), dict(r.headers)
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode(), dict(e.headers)


@pytest.fixture()
def live():
    agg = LiveAggregator(tick_s=0.01)
    yield agg
    agg.stop()


# ----------------------------------------------------------------------
# Aggregator accounting
# ----------------------------------------------------------------------
class TestAggregator:
    def test_thread_hammer_no_lost_increments(self, live):
        """8 threads x 2000 events through per-thread rings: every
        increment must land in the folded totals (rings are large
        enough that nothing may drop)."""
        threads_n, per_thread = 8, 2000
        live.start()

        def work(tid):
            for i in range(per_thread):
                live.emit_counter("hits")
                live.emit_latency("lat_s", 0.001 * (1 + i % 5))
                if i % 64 == 0:
                    live.force_collect()  # drain concurrently with pushes

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        live.stop()  # final force_collect drains the residual rings
        snap = live.snapshot()
        assert snap["dropped_events"] == 0
        assert snap["counters"]["hits"] == threads_n * per_thread
        assert snap["latency"]["lat_s"]["count"] == threads_n * per_thread

    def test_overflow_drops_are_counted_and_monotone(self):
        agg = LiveAggregator(ring_capacity=4)
        for _ in range(100):
            agg.emit_counter("c")
        agg.force_collect()
        first = agg.snapshot()
        # 4 folded, 96 dropped — conservation across fold + drop
        assert first["counters"]["c"] == 4
        assert first["dropped_events"] == 96
        for _ in range(50):
            agg.emit_counter("c")
        agg.force_collect()
        second = agg.snapshot()
        assert second["dropped_events"] >= first["dropped_events"]
        assert (second["counters"]["c"] + second["dropped_events"]) == 150

    def test_gauge_last_write_wins(self, live):
        live.emit_gauge("depth", 3.0)
        live.emit_gauge("depth", 7.0)
        live.force_collect()
        assert live.snapshot()["gauges"]["depth"] == 7.0

    def test_latency_percentiles_in_snapshot(self, live):
        for ms in range(1, 101):
            live.emit_latency("svc", ms / 1e3)
        live.force_collect()
        lat = live.snapshot()["latency"]["svc"]
        assert lat["count"] == 100
        assert lat["p50"] == pytest.approx(0.050, rel=0.02)
        assert lat["p99"] == pytest.approx(0.099, rel=0.02)
        assert lat["min"] == pytest.approx(0.001)
        assert lat["max"] == pytest.approx(0.100)

    def test_window_rates(self, live):
        import time

        live.force_collect()  # window base
        for _ in range(10):
            live.emit_counter("req")
        time.sleep(0.02)  # a measurable window span
        live.force_collect()
        snap = live.snapshot()
        assert snap["window_s"] > 0
        assert snap["rates"]["req"] > 0

    def test_provider_polled_and_errors_contained(self, live):
        live.register_provider("cache", lambda: {"hits": 5})
        live.register_provider("bad", lambda: 1 / 0)
        snap = live.snapshot()
        assert snap["providers"]["cache"] == {"hits": 5}
        assert "error" in snap["providers"]["bad"]

    def test_emit_before_start_and_after_stop_safe(self):
        agg = LiveAggregator()
        agg.emit_counter("early")
        agg.start()
        agg.stop()
        agg.emit_counter("late")
        agg.force_collect()
        snap = agg.snapshot()
        assert snap["counters"] == {"early": 1.0, "late": 1.0}


# ----------------------------------------------------------------------
# SLO parsing and evaluation
# ----------------------------------------------------------------------
class TestSlo:
    def test_parse_full_spec(self):
        slo = parse_slo("error-rate=0.01, p99-ms=50, window=30")
        assert slo.error_rate == 0.01
        assert slo.p99_ms == 50.0
        assert slo.window_s == 30.0

    @pytest.mark.parametrize("bad", [
        "latency=1", "p99-ms", "error-rate=x",
        # budgets Slo.evaluate cannot check
        "error-rate=-1", "error-rate=nan", "error-rate=0", "error-rate=1.5",
        "p99-ms=0", "p99-ms=inf", "window=-5", "window=nan",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_slo(bad)

    def _snap(self, errors, requests, p99_s):
        return {
            "window_s": 10.0,
            "rates": {
                "service_request_failed": errors / 10.0,
                "service_request_submitted": requests / 10.0,
            },
            "latency": {"service_latency_s": {"p99": p99_s}},
        }

    def test_burn_rate_thresholds(self):
        slo = Slo(error_rate=0.01)
        ok = slo.evaluate(self._snap(1, 100, 0.0))        # burn 1.0
        degraded = slo.evaluate(self._snap(2, 100, 0.0))  # burn 2.0
        failing = slo.evaluate(self._snap(5, 100, 0.0))   # burn 5.0
        assert ok["status"] == "ok"
        assert degraded["status"] == "degraded"
        assert failing["status"] == "failing"
        assert failing["checks"]["error_rate"]["burn_rate"] == pytest.approx(5.0)

    def test_p99_term(self):
        slo = Slo(p99_ms=50.0)
        assert slo.evaluate(self._snap(0, 1, 0.040))["status"] == "ok"
        assert slo.evaluate(self._snap(0, 1, 0.080))["status"] == "degraded"
        assert slo.evaluate(self._snap(0, 1, 0.500))["status"] == "failing"

    def test_worst_term_wins(self):
        slo = Slo(error_rate=0.01, p99_ms=50.0)
        out = slo.evaluate(self._snap(9, 100, 0.040))
        assert out["status"] == "failing"
        assert out["checks"]["p99_ms"]["status"] == "ok"

    def test_no_traffic_is_ok(self):
        slo = Slo(error_rate=0.01, p99_ms=50.0)
        assert slo.evaluate({"rates": {}, "latency": {}})["status"] == "ok"

    def test_aggregator_health_uses_slo(self):
        agg = LiveAggregator(slo=Slo(error_rate=0.01))
        assert agg.health()["status"] == "ok"
        agg_none = LiveAggregator()
        health = agg_none.health()
        assert health["status"] == "ok" and "note" in health


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def _snapshot(self):
        agg = LiveAggregator()
        agg.emit_counter("service_request_completed", 3)
        agg.emit_gauge("service_queue_depth", 2)
        for ms in (1, 2, 3):
            agg.emit_latency("service_latency_s", ms / 1e3)
        agg.force_collect()
        return agg.snapshot()

    def test_exposition_parses_and_round_trips(self):
        text = snapshot_prometheus_text(self._snapshot())
        samples = parse_prometheus_text(text)
        assert samples["repro_service_request_completed_total"][0][1] == 3.0
        assert samples["repro_service_queue_depth"][0][1] == 2.0
        labels = {
            lb["quantile"]
            for lb, _ in samples["repro_service_latency_s"]
            if "quantile" in lb
        }
        assert labels == {"0.5", "0.95", "0.99"}
        assert samples["repro_service_latency_s_count"][0][1] == 3.0
        assert "repro_obs_dropped_events_total" in samples
        assert "repro_obs_uptime_seconds" in samples

    def test_parser_is_strict(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus_text("not a metric line!")
        with pytest.raises(ValueError, match="non-numeric"):
            parse_prometheus_text("repro_x {nope}")

    def test_parser_handles_labels_and_comments(self):
        samples = parse_prometheus_text(
            "# HELP x y\nm{a=\"b\",c=\"d\"} 1.5\nm 2\n"
        )
        assert samples["m"] == [({"a": "b", "c": "d"}, 1.5), ({}, 2.0)]


# ----------------------------------------------------------------------
# HTTP endpoints
# ----------------------------------------------------------------------
class TestMonitoringServer:
    def test_endpoints(self):
        agg = LiveAggregator(slo=Slo(error_rate=0.5))
        agg.emit_counter("service_request_completed")
        agg.force_collect()
        server = MonitoringServer(agg).start()
        try:
            code, body, headers = _get(server.url + "/metrics")
            assert code == 200
            assert headers["Content-Type"].startswith("text/plain")
            assert "repro_service_request_completed_total" in \
                parse_prometheus_text(body)

            code, body, _ = _get(server.url + "/healthz")
            assert code == 200
            assert json.loads(body)["status"] == "ok"

            code, body, _ = _get(server.url + "/stats")
            assert code == 200
            stats = json.loads(body)
            assert stats["counters"]["service_request_completed"] == 1.0

            code, _, _ = _get(server.url + "/nope")
            assert code == 404
        finally:
            server.stop()
            agg.stop()

    def test_healthz_503_when_failing(self):
        # 10 submissions, 10 failures, budget 1%: burn rate 100 >> 2.
        agg = LiveAggregator(slo=Slo(error_rate=0.01))
        agg.force_collect()
        for _ in range(10):
            agg.emit_counter("service_request_submitted")
            agg.emit_counter("service_request_failed")
        agg.force_collect()
        server = MonitoringServer(agg).start()
        try:
            code, body, _ = _get(server.url + "/healthz")
            assert code == 503
            assert json.loads(body)["status"] == "failing"
        finally:
            server.stop()
            agg.stop()


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------
class TestTop:
    def _stats(self):
        return {
            "uptime_s": 12.0,
            "window_s": 10.0,
            "dropped_events": 0,
            "latency": {"service_latency_s": {
                "count": 5, "p50": 0.001, "p95": 0.002, "p99": 0.003}},
            "rates": {"service_request_completed": 2.5},
            "providers": {"cache": {"hits": 4, "hit_rate": 0.8}},
            "slo": {"status": "ok", "checks": {"error_rate": {"status": "ok"}}},
        }

    def test_render_top_frame(self):
        frame = render_top(self._stats())
        assert "repro top" in frame
        assert "service_latency_s" in frame
        assert "slo:" in frame and "ok" in frame
        assert "cache:" in frame and "hit_rate=0.8" in frame

    def test_run_top_once_against_live_server(self):
        agg = LiveAggregator()
        agg.emit_latency("service_latency_s", 0.002)
        agg.force_collect()
        server = MonitoringServer(agg).start()
        out = io.StringIO()
        try:
            rc = run_top(server.url, once=True, stream=out)
        finally:
            server.stop()
            agg.stop()
        assert rc == 0
        assert "repro top" in out.getvalue()

    def test_run_top_unreachable_returns_1(self):
        out = io.StringIO()
        assert run_top("http://127.0.0.1:1", once=True, stream=out) == 1
