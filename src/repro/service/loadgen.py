"""Closed-loop load generator for the solver service.

The serving claim this repo makes — multi-RHS batching beats
one-at-a-time serving under concurrency — needs a measurement harness,
not an anecdote.  This module is that harness:

* **closed-loop clients**: each of ``clients`` threads keeps exactly
  one request in flight (submit → wait → submit), the standard model
  for latency benchmarking because offered load adapts to service rate
  instead of queueing unboundedly;
* **factorize outside the window**: :func:`run_load` warms the session
  first, so the measured distribution is pure serving latency (the
  factorization cost is the cache's business and is reported
  separately);
* **latency percentiles**: per-request submit→complete intervals are
  collected client-side and summarized as p50/p95/p99 — medians for the
  typical request, tails for what batching and admission control do
  under load;
* **bounded-memory streaming stats**: every client-observed latency is
  also folded into a :class:`~repro.obs.sketch.LogHistogram`
  (``report.sketch``) and — when the service carries a live aggregator —
  streamed as ``client_latency_s``, so long-running load keeps a live
  p50/p95/p99 without the raw list being required for them
  (``report.latencies_s`` keeps the raw samples the exact percentiles of
  the printed table are taken from).

This is a load tool, not the repo's ruler: serving latency on a shared
host cannot be gated (``benchmarks/e2e/README.md``), so a serving claim
goes through the ``svc_cold`` workload of ``benchmarks/e2e/run.py`` and
``tools/bench_pairs.py`` like every other.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..obs.sketch import LogHistogram
from ..utils.exceptions import DeadlineExceededError, QueueFullError
from .server import ServiceSession, percentiles

__all__ = ["LoadReport", "run_load"]


@dataclass
class LoadReport:
    """Outcome of one closed-loop load run."""

    clients: int
    requests_per_client: int
    completed: int = 0
    rejected: int = 0
    dropped: int = 0
    failed: int = 0
    wall_s: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_batch_width: float = 0.0
    max_batch_width: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    factorizations: int = 0
    warm_starts: int = 0
    latencies_s: tuple = field(default_factory=tuple, repr=False)
    sketch: LogHistogram | None = field(default=None, repr=False)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0


def run_load(
    session: ServiceSession,
    *,
    clients: int = 8,
    requests_per_client: int = 10,
    seed: int = 0,
    deadline_s: float | None = None,
    retry_rejected: bool = True,
    retry_sleep_s: float = 0.001,
) -> LoadReport:
    """Drive a warmed session with closed-loop concurrent clients.

    Each client thread draws its own RNG stream (``seed + client``) and
    keeps one request in flight at a time.  A
    :class:`~repro.utils.exceptions.QueueFullError` is counted as a
    rejection and — with ``retry_rejected`` — retried after a short
    sleep, so the closed loop completes its request quota while still
    recording how often admission control pushed back.  Deadline drops
    and failures are counted and *not* retried.

    The session is warmed before the clock starts: the report measures
    serving, not factorization.
    """
    session.warm()
    n = session.recipe.problem.n
    report = LoadReport(clients=clients, requests_per_client=requests_per_client)
    report.sketch = LogHistogram()
    live = getattr(session.service, "live", None)
    lock = threading.Lock()
    latencies: list[float] = []

    def client(cid: int) -> None:
        rng = np.random.default_rng(seed + cid)
        done = 0
        while done < requests_per_client:
            rhs = rng.standard_normal(n)
            try:
                ticket = session.submit(rhs, deadline_s=deadline_s)
                ticket.result()
            except QueueFullError:
                with lock:
                    report.rejected += 1
                if not retry_rejected:
                    done += 1
                    continue
                time.sleep(retry_sleep_s)
                continue
            except DeadlineExceededError:
                with lock:
                    report.dropped += 1
                done += 1
                continue
            except Exception:
                with lock:
                    report.failed += 1
                done += 1
                continue
            latency = ticket.latency_s
            report.sketch.add(latency)  # thread-safe streaming path
            if live is not None:
                live.emit_latency("client_latency_s", latency)
            with lock:
                report.completed += 1
                latencies.append(latency)
            done += 1

    threads = [
        threading.Thread(target=client, args=(cid,), name=f"loadgen-{cid}")
        for cid in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.wall_s = time.perf_counter() - t0

    report.latencies_s = tuple(latencies)
    p50, p95, p99 = percentiles(latencies)
    report.p50_ms, report.p95_ms, report.p99_ms = (
        p50 * 1e3, p95 * 1e3, p99 * 1e3,
    )
    stats = session.service.stats()
    report.mean_batch_width = stats.mean_batch_width
    report.max_batch_width = stats.max_batch_width
    cache = stats.cache
    report.cache_hits = cache.hits
    report.cache_misses = cache.misses
    report.factorizations = cache.factorizations
    report.warm_starts = cache.warm_starts
    return report

