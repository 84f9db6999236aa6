"""Stdlib HTTP monitoring plane + terminal top view (``repro.obs.httpd``).

:class:`MonitoringServer` wraps ``http.server.ThreadingHTTPServer``
around a :class:`~repro.obs.live.LiveAggregator` — three read-only
endpoints, no dependencies beyond the standard library:

* ``GET /metrics`` — Prometheus text exposition.  Counters become
  ``repro_<name>_total``, gauges ``repro_<name>``, and each latency
  sketch a Prometheus **summary** (``{quantile="0.5"}`` … plus
  ``_sum``/``_count``), so a stock Prometheus scrape ingests the
  sketch percentiles directly.
* ``GET /healthz`` — the SLO evaluation from
  :meth:`~repro.obs.live.LiveAggregator.health`; HTTP 200 while
  ``ok``/``degraded``, 503 once ``failing`` (load balancers eject the
  instance exactly when the error budget is burning > 2x).
* ``GET /stats`` — the full JSON snapshot (sketch percentiles,
  FactorCache hits/misses/evictions, queue depth, worker occupancy).

:func:`parse_prometheus_text` is the reverse direction — a small,
strict parser used by the tests and the CI smoke lane to prove the
exposition is well-formed, not just non-empty.  :func:`render_top` and
:func:`run_top` are the ``repro top`` terminal renderer: poll
``/stats``, redraw in place.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .exporters import _prom_labels, _prom_name
from .live import LiveAggregator

__all__ = [
    "MonitoringServer",
    "snapshot_prometheus_text",
    "parse_prometheus_text",
    "render_top",
    "run_top",
]


# ----------------------------------------------------------------------
# Prometheus exposition from a live snapshot
# ----------------------------------------------------------------------
_QUANTILES = ((0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99"))


def snapshot_prometheus_text(snapshot: dict) -> str:
    """Render a :meth:`LiveAggregator.snapshot` as Prometheus text.

    Sketches export as summaries because their log buckets (thousands
    at 1 % relative error) would bloat a histogram exposition; the
    quantiles carry the same documented error bound.
    """
    out: list[str] = []

    for name, value in sorted(snapshot.get("counters", {}).items()):
        prom = _prom_name(name) + "_total"
        out.append(f"# TYPE {prom} counter")
        out.append(f"{prom} {value:g}")

    for name, value in sorted(snapshot.get("gauges", {}).items()):
        prom = _prom_name(name)
        out.append(f"# TYPE {prom} gauge")
        out.append(f"{prom} {value:g}")

    for name, lat in sorted(snapshot.get("latency", {}).items()):
        prom = _prom_name(name)
        out.append(f"# TYPE {prom} summary")
        for p, label in _QUANTILES:
            key = f"p{p * 100:g}"
            quantile = _prom_labels({"quantile": label})
            out.append(f"{prom}{quantile} {lat.get(key, 0.0):g}")
        out.append(f"{prom}_sum {lat.get('mean', 0.0) * lat.get('count', 0):g}")
        out.append(f"{prom}_count {lat.get('count', 0):g}")

    dropped = _prom_name("obs_dropped_events") + "_total"
    out.append(f"# TYPE {dropped} counter")
    out.append(f"{dropped} {snapshot.get('dropped_events', 0):g}")

    up = _prom_name("obs_uptime_seconds")
    out.append(f"# TYPE {up} gauge")
    out.append(f"{up} {snapshot.get('uptime_s', 0.0):g}")
    return "\n".join(out) + "\n"


_METRIC_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse Prometheus text exposition → ``{name: [(labels, value)]}``.

    Strict: every non-comment line must match the exposition grammar
    and every value must parse as a float, otherwise :class:`ValueError`
    names the offending line.  Used by tests and the CI smoke lane to
    validate ``/metrics`` (and ``metrics.prom`` files) for real.
    """
    samples: dict[str, list[tuple[dict, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _METRIC_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        raw = m.group("value")
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value {raw!r}"
            ) from None
        labels = dict(_LABEL_RE.findall(m.group("labels") or ""))
        samples.setdefault(m.group("name"), []).append((labels, value))
    return samples


# ----------------------------------------------------------------------
# The HTTP server
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    aggregator: LiveAggregator  # set by MonitoringServer on the class

    def do_GET(self) -> None:  # noqa: N802 (stdlib API)
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = snapshot_prometheus_text(self.aggregator.snapshot())
                self._reply(
                    200, body, "text/plain; version=0.0.4; charset=utf-8"
                )
            elif path == "/healthz":
                health = self.aggregator.health()
                code = 503 if health.get("status") == "failing" else 200
                self._reply(code, json.dumps(health, indent=1))
            elif path == "/stats":
                self._reply(200, json.dumps(self.aggregator.snapshot(), indent=1))
            else:
                self._reply(404, json.dumps({"error": f"no route {path}"}))
        except Exception as exc:  # pragma: no cover - defensive
            self._reply(500, json.dumps({"error": repr(exc)}))

    def _reply(
        self, code: int, body: str, ctype: str = "application/json"
    ) -> None:
        data = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt, *args) -> None:  # silence stderr chatter
        pass


class MonitoringServer:
    """Serve ``/metrics``, ``/healthz``, ``/stats`` for an aggregator.

    ``port=0`` binds an ephemeral port (the default for tests); read the
    real one from :attr:`port` or :attr:`url` after :meth:`start`.
    Request handling runs on daemon threads; :meth:`stop` shuts the
    listener down and joins the serve loop.
    """

    def __init__(
        self,
        aggregator: LiveAggregator,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.aggregator = aggregator
        handler = type("BoundHandler", (_Handler,), {"aggregator": aggregator})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MonitoringServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="obs-httpd",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------
def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.2f}"


def render_top(stats: dict, width: int = 72) -> str:
    """One frame of the ``repro top`` display from a ``/stats`` body."""
    bar = "=" * width
    lines = [
        bar,
        f" repro top · uptime {stats.get('uptime_s', 0.0):8.1f}s"
        f" · window {stats.get('window_s', 0.0):5.1f}s"
        f" · dropped {stats.get('dropped_events', 0)}",
        bar,
    ]
    slo = stats.get("slo")
    if slo:
        checks = ", ".join(
            f"{k}={v['status']}" for k, v in slo.get("checks", {}).items()
        )
        lines.append(f" slo: {slo.get('status', '?'):>8}   {checks}")
    lat = stats.get("latency", {})
    if lat:
        lines.append(
            f" {'latency (ms)':<28}{'count':>8}{'p50':>9}{'p95':>9}{'p99':>9}"
        )
        for name, d in sorted(lat.items()):
            lines.append(
                f" {name:<28}{d.get('count', 0):>8}"
                f"{_fmt_ms(d.get('p50', 0.0)):>9}"
                f"{_fmt_ms(d.get('p95', 0.0)):>9}"
                f"{_fmt_ms(d.get('p99', 0.0)):>9}"
            )
    rates = stats.get("rates", {})
    busy = {k: v for k, v in rates.items() if v > 0}
    if busy:
        lines.append(f" {'rate (events/s)':<40}{'value':>12}")
        for name, rate in sorted(busy.items()):
            lines.append(f" {name:<40}{rate:>12.2f}")
    for pname, pdata in sorted(stats.get("providers", {}).items()):
        if isinstance(pdata, dict):
            body = "  ".join(
                f"{k}={_short(v)}" for k, v in sorted(pdata.items())
            )
            lines.append(f" {pname}: {body}")
    lines.append(bar)
    return "\n".join(lines)


def _short(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def fetch_stats(url: str, timeout: float = 5.0) -> dict:
    """GET ``<url>/stats`` and decode the JSON body."""
    with urllib.request.urlopen(url.rstrip("/") + "/stats", timeout=timeout) as r:
        return json.loads(r.read().decode())


def run_top(
    url: str,
    *,
    interval: float = 1.0,
    iterations: int | None = None,
    once: bool = False,
    stream=None,
) -> int:
    """Poll ``/stats`` and redraw :func:`render_top` in place.

    ``once`` prints a single frame (CI-friendly); otherwise refresh
    every ``interval`` seconds, ``iterations`` times (forever when
    ``None``, until KeyboardInterrupt).  Returns a process exit code.
    """
    import sys

    stream = stream or sys.stdout
    n = 1 if once else iterations
    frames = 0
    try:
        while n is None or frames < n:
            stats = fetch_stats(url)
            frame = render_top(stats)
            if frames and stream.isatty():
                # move the cursor up over the previous frame
                stream.write(f"\x1b[{frame.count(chr(10)) + 1}A")
            stream.write(frame + "\n")
            stream.flush()
            frames += 1
            if n is not None and frames >= n:
                break
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    except OSError as exc:
        print(f"repro top: cannot reach {url}: {exc}", file=sys.stderr)
        return 1
    return 0
