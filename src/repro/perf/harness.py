"""Benchmark harness: warmup/repeat timing with median-and-IQR statistics.

The ROADMAP's mandate — "every PR makes a hot path measurably faster" —
needs a measurement discipline, not ad-hoc ``time.perf_counter`` pairs.
This module is that discipline:

* :func:`measure` — run a callable ``warmup`` times untimed, then
  ``repeats`` times timed, and summarize as a :class:`Timing`
  (median + inter-quartile range; the IQR is the noise floor the
  regression gate compares deltas against);
* :class:`BenchRecord` / :func:`append_history` /
  :func:`load_history` — schema-versioned JSON-lines persistence
  (``BENCH_history.jsonl``): every ``python -m repro bench`` invocation
  appends one record per benchmark, so the file is the repo's
  performance trajectory and any two points of it are comparable with
  ``python -m repro compare``;
* :func:`default_suite` / :func:`run_suite` — the standing benchmark
  suite over the pipeline's hot paths (compression backends, sequential
  and parallel factorization, triangular solve) at ``--smoke`` or full
  sizes.

Medians (not means) because timing noise is one-sided — preemption and
cache pollution only ever make a run *slower* — and the IQR travels with
every record so the comparison side can tell signal from spread without
re-running the base.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "Timing",
    "BenchRecord",
    "measure",
    "append_history",
    "load_history",
    "runs_in_history",
    "records_for_run",
    "latest_run",
    "records_from_tune",
    "default_suite",
    "run_suite",
]

#: Bump when the record layout changes; readers skip newer-schema rows.
SCHEMA_VERSION = 1

#: Default history file name (repo root by convention).
HISTORY_FILE = "BENCH_history.jsonl"


def _median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def _quantile(xs: list[float], p: float) -> float:
    s = sorted(xs)
    n = len(s)
    if n == 1:
        return s[0]
    idx = p * (n - 1)
    lo = math.floor(idx)
    hi = math.ceil(idx)
    return s[lo] + (s[hi] - s[lo]) * (idx - lo)


@dataclass(frozen=True)
class Timing:
    """Summary statistics of one benchmark's repeated timed runs."""

    times_s: tuple[float, ...]

    @property
    def median_s(self) -> float:
        return _median(list(self.times_s))

    @property
    def q1_s(self) -> float:
        return _quantile(list(self.times_s), 0.25)

    @property
    def q3_s(self) -> float:
        return _quantile(list(self.times_s), 0.75)

    @property
    def iqr_s(self) -> float:
        return self.q3_s - self.q1_s

    @property
    def min_s(self) -> float:
        return min(self.times_s)


def measure(
    fn,
    *,
    warmup: int = 1,
    repeats: int = 5,
    setup=None,
) -> Timing:
    """Time ``fn`` with warmup/repeat discipline.

    ``setup`` (when given) runs untimed before *every* invocation —
    warmup and timed alike — so benchmarks that mutate their input
    (in-place factorization) can rebuild it outside the clock.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(max(0, warmup)):
        arg = setup() if setup is not None else None
        fn(arg) if setup is not None else fn()
    times = []
    for _ in range(repeats):
        arg = setup() if setup is not None else None
        t0 = time.perf_counter()
        fn(arg) if setup is not None else fn()
        times.append(time.perf_counter() - t0)
    return Timing(times_s=tuple(times))


@dataclass
class BenchRecord:
    """One benchmark × one harness invocation, as persisted to history."""

    name: str
    run: str
    timing: Timing
    config: dict = field(default_factory=dict)
    ts: str = ""
    warmup: int = 1

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "run": self.run,
            "ts": self.ts,
            "name": self.name,
            "median_s": round(self.timing.median_s, 9),
            "iqr_s": round(self.timing.iqr_s, 9),
            "q1_s": round(self.timing.q1_s, 9),
            "q3_s": round(self.timing.q3_s, 9),
            "min_s": round(self.timing.min_s, 9),
            "repeats": len(self.timing.times_s),
            "warmup": self.warmup,
            "times_s": [round(t, 9) for t in self.timing.times_s],
            "config": self.config,
            "env": {
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BenchRecord":
        return cls(
            name=doc["name"],
            run=doc.get("run", ""),
            timing=Timing(times_s=tuple(doc.get("times_s", [doc["median_s"]]))),
            config=doc.get("config", {}),
            ts=doc.get("ts", ""),
            warmup=doc.get("warmup", 0),
        )


def append_history(records: list[BenchRecord], path: str | Path) -> Path:
    """Append records to a JSON-lines history file (created on demand)."""
    path = Path(path)
    if path.is_dir():
        path = path / HISTORY_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json()) + "\n")
    return path


def load_history(path: str | Path) -> list[BenchRecord]:
    """Read every readable record from a history file.

    Rows with a newer schema than this reader are skipped (forward
    compatibility); malformed lines raise — a corrupt history should be
    noticed, not silently truncated.
    """
    path = Path(path)
    if path.is_dir():
        path = path / HISTORY_FILE
    records = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        if doc.get("schema", 0) > SCHEMA_VERSION:
            continue
        records.append(BenchRecord.from_json(doc))
    return records


def runs_in_history(records: list[BenchRecord]) -> list[str]:
    """Distinct run labels in append (chronological) order."""
    seen: dict[str, None] = {}
    for rec in records:
        seen.setdefault(rec.run, None)
    return list(seen)


def records_for_run(records: list[BenchRecord], run: str) -> list[BenchRecord]:
    return [r for r in records if r.run == run]


def latest_run(records: list[BenchRecord]) -> list[BenchRecord]:
    """The records of the most recently appended run label."""
    runs = runs_in_history(records)
    if not runs:
        return []
    return records_for_run(records, runs[-1])


def records_from_tune(
    result, *, run: str | None = None, label: str | None = None
) -> list[BenchRecord]:
    """Bench-history records of one autotuning result (the TuneRecord).

    Persists the winner's *predicted* makespan — and, when the result
    was verified, the *realized* one — so ``BENCH_history.jsonl``
    tracks the tuner's selections over time and ``repro compare`` can
    gate a tuner change exactly like any other perf change.  ``result``
    is a :class:`repro.tune.TuneResult`.
    """
    run = run or label or time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    ts = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    winner = result.winner
    config = {
        **result.config(),
        "rates_mode": result.rates_mode,
        "algorithm1_band": result.algorithm1_band,
        "candidates": len(result.candidates),
    }
    records = [
        BenchRecord(
            name="tune_predicted_makespan",
            run=run,
            timing=Timing(times_s=(winner.makespan_s,)),
            config=config,
            ts=ts,
            warmup=0,
        )
    ]
    if result.verify is not None:
        realized = float(result.verify.get("realized_makespan_s", 0.0))
        if realized > 0.0:
            records.append(
                BenchRecord(
                    name="tune_realized_makespan",
                    run=run,
                    timing=Timing(times_s=(realized,)),
                    config={
                        **config,
                        "gate_passed": bool(result.verify.get("gate_passed")),
                    },
                    ts=ts,
                    warmup=0,
                )
            )
    return records


# ----------------------------------------------------------------------
# The standing suite
# ----------------------------------------------------------------------
def default_suite(*, smoke: bool = False) -> list[dict]:
    """The repo's standing benchmarks over the pipeline's hot paths.

    Each entry is ``{"name", "config", "setup", "fn"}`` consumable by
    :func:`run_suite`.  ``--smoke`` sizes finish in seconds on a laptop
    CI runner; full sizes match the ablation benchmarks.  Note the
    compression benches measure *backend* cost (unhinted rsvd is slower
    than svd on small tiles at tight ε — the table in
    ``benchmarks/bench_ablation_compression.py``), so a smoke-scale
    rsvd-slower-than-svd reading is expected, not a regression.

    The factorize/solve benches run the library's recommended hot-path
    configuration — the ``auto`` compression backend plus batched kernel
    dispatch (``batch=True``) — so the history tracks what users
    actually get; the per-backend compression benches keep svd and rsvd
    separately comparable.
    """
    from .. import TLRSolver, st_3d_exp_problem
    from ..linalg.backends import get_backend

    n, b = (512, 64) if smoke else (2000, 250)
    accuracy = 1e-6

    def problem():
        return st_3d_exp_problem(n=n, tile_size=b)

    def build(compression):
        return TLRSolver.from_problem(
            problem(), accuracy=accuracy, band_size=2, compression=compression
        )

    suite: list[dict] = []
    base_cfg = {"n": n, "tile_size": b, "accuracy": accuracy, "band_size": 2}
    for backend in ("svd", "rsvd"):
        suite.append(
            {
                "name": f"compress_{backend}",
                "config": {**base_cfg, "backend": backend},
                "setup": None,
                "fn": (lambda be: lambda: build(get_backend(be)))(backend),
            }
        )
    suite.append(
        {
            "name": "factorize_seq",
            "config": {**base_cfg, "backend": "auto", "batch": True},
            "setup": lambda: build("auto"),
            "fn": lambda solver: solver.factorize(batch=True),
        }
    )
    suite.append(
        {
            "name": "factorize_par2",
            "config": {**base_cfg, "backend": "auto", "batch": True,
                       "n_workers": 2},
            "setup": lambda: build("auto"),
            "fn": lambda solver: solver.factorize(n_workers=2, batch=True),
        }
    )

    def solve_setup():
        import numpy as np

        solver = build("auto")
        solver.factorize(batch=True)
        rng = np.random.default_rng(7)
        return solver, rng.standard_normal(n)

    suite.append(
        {
            "name": "solve",
            "config": base_cfg,
            "setup": solve_setup,
            "fn": lambda arg: arg[0].solve(arg[1]),
        }
    )
    return suite


def run_suite(
    *,
    smoke: bool = False,
    warmup: int = 1,
    repeats: int = 5,
    label: str | None = None,
    name_filter: str | None = None,
    progress=None,
) -> list[BenchRecord]:
    """Measure the standing suite; returns un-persisted records.

    ``label`` names the run (defaults to a UTC timestamp); ``name_filter``
    keeps benchmarks whose name contains the substring; ``progress`` is
    an optional callable receiving one line per finished benchmark.
    """
    run = label or time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    ts = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    records = []
    for bench in default_suite(smoke=smoke):
        if name_filter and name_filter not in bench["name"]:
            continue
        timing = measure(
            bench["fn"], warmup=warmup, repeats=repeats, setup=bench["setup"]
        )
        rec = BenchRecord(
            name=bench["name"],
            run=run,
            timing=timing,
            config={**bench["config"], "smoke": smoke},
            ts=ts,
            warmup=warmup,
        )
        records.append(rec)
        if progress is not None:
            progress(
                f"{rec.name:<16} median {timing.median_s:.4f} s  "
                f"IQR {timing.iqr_s:.4f} s  ({repeats} repeats)"
            )
    return records
