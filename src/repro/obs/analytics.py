"""Trace analytics: critical path, occupancy, flop rates, run diffs.

The paper's headline results are *trace narratives*: Fig. 10 shows the
recursive kernels shortening the realized critical path, Fig. 11 shows
worker occupancy, and the Table-II comparison is a flop-rate argument.
:mod:`repro.obs` records the raw material (task spans from both
executors, the dependency DAG via :func:`repro.obs.graph_observed`,
per-kernel flop counters); this module is the analysis side that turns a
recorded run into those figures' numbers:

* :func:`critical_path` — the longest *measured* chain of task spans
  through the recorded dependency DAG: the realized critical path, with
  the ``CP <= wall <= CP + work/p`` sanity bounds a trace must satisfy;
* :func:`occupancy` — per-worker busy fractions and a bucketed busy
  timeline (the Fig. 11 view, from real spans instead of the simulator);
* :func:`flop_attribution` — achieved GFLOP/s per Table-I kernel class
  (modelled flops over measured span seconds) with the dense-band vs
  low-rank split;
* :func:`trace_diff` — a structural, noise-aware comparison of two runs:
  task-set changes plus per-kernel-class timing deltas, flagging a class
  as regressed only when its slowdown clears both a relative threshold
  and the runs' own inter-quartile spread.

Everything consumes a :class:`RunTrace`, built either from a live
:class:`~repro.obs.Observation` (:func:`run_from_observation`) or from a
recorded ``--obs`` directory (:func:`load_run` reads ``events.jsonl``,
``graph.json`` and ``summary.json``) — so ``python -m repro analyze``
works on any run directory, long after the process that wrote it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "TaskSpan",
    "RunTrace",
    "CriticalPath",
    "OccupancyReport",
    "KernelRate",
    "KernelDelta",
    "TraceDiff",
    "run_from_observation",
    "load_run",
    "critical_path",
    "occupancy",
    "flop_attribution",
    "trace_diff",
    "PredictionAccuracy",
    "prediction_accuracy",
    "render_analysis",
    "render_diff",
    "render_prediction",
]

#: Region-(1) kernel classes — the all-dense band work (Table I).
_DENSE_CLASSES = frozenset({"(1)-POTRF", "(1)-TRSM", "(1)-SYRK", "(1)-GEMM"})


@dataclass(frozen=True)
class TaskSpan:
    """One executed task as recorded by an executor's tracer span."""

    name: str
    start: float
    end: float
    thread: str
    kernel: str | None = None
    flops: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RunTrace:
    """The analyzable surface of one recorded run.

    ``tasks`` are the category-``"task"`` spans (one per executed task),
    ``graph`` the dependency document captured by
    :func:`repro.obs.graph_observed` (``None`` when the recording ran no
    task graph — e.g. only assemblies and solves), ``wall_s`` the observed
    wall clock, ``meta`` whatever the observation's creator attached, and
    ``tunings`` one ``{seconds, band_size, tiles_probed, tiles_discarded}``
    per ``band_size="auto"`` assembly (its ``autotune_band`` span), and
    ``tiles`` the tile counts of assemblies and factorizations:
    ``{deferred, born_dense, generated, generate_s, lowrank, fp32}`` —
    tiles the ``assemble`` spans left pending (a deferred assembly), how
    many off-band ones the factorizations (``tlr_cholesky`` spans) kept
    dense instead of compressing, the ``generate`` spans (count, seconds)
    nested in the tasks that generated pending tiles, and the factors'
    low-rank tiles and how many of them are float32.
    """

    tasks: list[TaskSpan] = field(default_factory=list)
    graph: dict | None = None
    wall_s: float = 0.0
    meta: dict = field(default_factory=dict)
    tunings: list[dict] = field(default_factory=list)
    tiles: dict = field(default_factory=dict)

    @property
    def workers(self) -> list[str]:
        """Distinct threads that executed tasks, stable order."""
        seen: dict[str, None] = {}
        for t in self.tasks:
            seen.setdefault(t.thread, None)
        return list(seen)

    @property
    def n_workers(self) -> int:
        return max(1, len(self.workers))

    @property
    def busy_s(self) -> float:
        """Aggregate task-span seconds (the run's measured work)."""
        return sum(t.duration for t in self.tasks)

    @property
    def window_s(self) -> float:
        """Task execution window (first task start to last task end).

        An observation often covers more than the graph execution
        (assembly, compression); Graham-bound checks compare the
        critical path against this window, not the full wall clock.
        """
        if not self.tasks:
            return 0.0
        return max(t.end for t in self.tasks) - min(t.start for t in self.tasks)


def _tile_counts(spans) -> dict:
    """:attr:`RunTrace.tiles` from ``(name, seconds, attrs)`` spans."""
    out = {
        "deferred": 0, "born_dense": 0, "generated": 0, "generate_s": 0.0,
        "lowrank": 0, "fp32": 0,
    }
    for name, seconds, attrs in spans:
        if name in ("assemble", "tlr_cholesky"):
            # older recordings book column 0's dense births on the assembly
            out["born_dense"] += int(attrs.get("tiles_born_dense") or 0)
        if name == "assemble":
            out["deferred"] += int(attrs.get("tiles_deferred") or 0)
        elif name == "tlr_cholesky":
            out["lowrank"] += int(attrs.get("lowrank_tiles") or 0)
            out["fp32"] += int(attrs.get("fp32_tiles") or 0)
        elif name == "generate":
            out["generated"] += 1
            out["generate_s"] += seconds
    return out


def run_from_observation(observation) -> RunTrace:
    """Build a :class:`RunTrace` from a live :class:`~repro.obs.Observation`."""
    tasks = [
        TaskSpan(
            name=rec.name,
            start=rec.start,
            end=rec.end,
            thread=rec.thread,
            kernel=rec.attrs.get("kernel"),
            flops=float(rec.attrs.get("flops", 0.0) or 0.0),
        )
        for rec in observation.tracer.spans
        if rec.category == "task"
    ]
    return RunTrace(
        tasks=tasks,
        graph=observation.graph,
        wall_s=observation.wall_s,
        meta=dict(observation.meta),
        tunings=[
            {"seconds": rec.end - rec.start, **rec.attrs}
            for rec in observation.tracer.spans
            if rec.name == "autotune_band"
        ],
        tiles=_tile_counts(
            (rec.name, rec.end - rec.start, rec.attrs)
            for rec in observation.tracer.spans
        ),
    )


def load_run(path: str | Path) -> RunTrace:
    """Load a :class:`RunTrace` from an ``--obs`` run directory.

    Reads ``events.jsonl`` (task spans), ``graph.json`` (dependency DAG,
    optional) and ``summary.json`` (wall clock + meta, optional).
    """
    path = Path(path)
    if path.is_file():  # accept any of the artifact files directly
        path = path.parent
    events = path / "events.jsonl"
    if not events.exists():
        raise FileNotFoundError(
            f"no events.jsonl under {path}; record a run with "
            "'python -m repro execute --obs DIR' or Observation.write()"
        )
    tasks, tunings, spans = [], [], []
    for line in events.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("type") != "span":
            continue
        attrs = rec.get("attrs", {})
        spans.append((rec.get("name"), rec["end"] - rec["start"], attrs))
        if rec.get("name") == "autotune_band":
            tunings.append({"seconds": rec["end"] - rec["start"], **attrs})
        if rec.get("cat") != "task":
            continue
        flops = attrs.get("flops", 0.0)
        try:
            flops = float(flops)
        except (TypeError, ValueError):
            flops = 0.0
        tasks.append(
            TaskSpan(
                name=rec["name"],
                start=rec["start"],
                end=rec["end"],
                thread=rec.get("thread", "?"),
                kernel=attrs.get("kernel"),
                flops=flops,
            )
        )
    graph = None
    graph_path = path / "graph.json"
    if graph_path.exists():
        graph = json.loads(graph_path.read_text())
    wall_s = max((t.end for t in tasks), default=0.0)
    meta: dict = {}
    summary_path = path / "summary.json"
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
        wall_s = float(summary.get("wall_s", wall_s))
        meta = summary.get("meta", {})
    return RunTrace(
        tasks=tasks, graph=graph, wall_s=wall_s, meta=meta, tunings=tunings,
        tiles=_tile_counts(spans),
    )


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
@dataclass
class CriticalPath:
    """The realized critical path of one run.

    ``chain`` lists the task names along the longest measured chain in
    execution order; ``length_s`` is the sum of their span durations.
    A healthy trace satisfies ``length_s <= wall_s`` (the chain ran
    inside the run) and — for a busy parallel run — ``wall_s`` not far
    above ``length_s + busy_s / n_workers`` (Graham's bound).
    """

    chain: list[str]
    length_s: float
    wall_s: float
    window_s: float
    busy_s: float
    n_workers: int

    @property
    def chain_fraction(self) -> float:
        """Critical-path seconds as a fraction of the wall clock."""
        return self.length_s / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def parallelism(self) -> float:
        """Average parallelism ``busy / length`` the DAG exposed."""
        return self.busy_s / self.length_s if self.length_s > 0 else 0.0


def _graph_deps(run: RunTrace) -> dict[str, list[str]]:
    """``{task name: [predecessor names]}`` restricted to observed tasks."""
    if run.graph is None:
        raise ValueError(
            "run has no recorded dependency graph; execute through "
            "the graph executors (e.g. demo/execute --workers) so "
            "graph.json is captured"
        )
    observed = {t.name for t in run.tasks}
    out: dict[str, list[str]] = {}
    for name, info in run.graph.get("tasks", {}).items():
        if name in observed:
            out[name] = [d for d in info.get("deps", []) if d in observed]
    return out


def critical_path(run: RunTrace) -> CriticalPath:
    """Longest measured chain through the recorded dependency DAG.

    Weights are the *measured* span durations (not modelled flops), so
    this is the realized critical path — the quantity Fig. 10's
    recursive-kernel argument is about.  Raises ``ValueError`` when the
    run carried no dependency graph.
    """
    deps = _graph_deps(run)
    durations: dict[str, float] = {}
    for t in run.tasks:
        # A retried task records several spans; the committed attempt is
        # the last one, but every attempt occupied the chain — sum them.
        durations[t.name] = durations.get(t.name, 0.0) + t.duration

    indeg = {name: len(ps) for name, ps in deps.items()}
    succs: dict[str, list[str]] = {name: [] for name in deps}
    for name, ps in deps.items():
        for p in ps:
            succs[p].append(name)

    ready = [name for name, d in indeg.items() if d == 0]
    dist: dict[str, float] = {}
    best_pred: dict[str, str | None] = {}
    order_seen = 0
    while ready:
        name = ready.pop()
        order_seen += 1
        pred, base = None, 0.0
        for p in deps[name]:
            if dist[p] > base:
                pred, base = p, dist[p]
        dist[name] = base + durations.get(name, 0.0)
        best_pred[name] = pred
        for s in succs[name]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if order_seen != len(deps):
        raise ValueError(
            f"dependency graph is cyclic over the observed tasks "
            f"({order_seen} of {len(deps)} ordered)"
        )

    chain: list[str] = []
    if dist:
        name = max(dist, key=dist.get)
        while name is not None:
            chain.append(name)
            name = best_pred[name]
        chain.reverse()
    return CriticalPath(
        chain=chain,
        length_s=sum(durations.get(n, 0.0) for n in chain),
        wall_s=run.wall_s,
        window_s=run.window_s,
        busy_s=run.busy_s,
        n_workers=run.n_workers,
    )


def is_dependency_path(run: RunTrace, chain: list[str]) -> bool:
    """True when consecutive chain entries are graph-connected edges."""
    if run.graph is None:
        return False
    tasks = run.graph.get("tasks", {})
    for src, dst in zip(chain, chain[1:]):
        if src not in tasks.get(dst, {}).get("deps", []):
            return False
    return bool(chain)


# ----------------------------------------------------------------------
# Occupancy
# ----------------------------------------------------------------------
@dataclass
class OccupancyReport:
    """Per-worker busy fractions plus a bucketed busy-worker timeline."""

    workers: list[str]
    busy_s: dict[str, float]
    fractions: dict[str, float]
    timeline: list[float]  # mean busy-worker count per bucket
    wall_s: float

    @property
    def mean_occupancy(self) -> float:
        if not self.fractions:
            return 0.0
        return sum(self.fractions.values()) / len(self.fractions)


def occupancy(run: RunTrace, *, buckets: int = 60) -> OccupancyReport:
    """Worker occupancy from task spans (the trace-side Fig. 11)."""
    wall = run.wall_s or max((t.end for t in run.tasks), default=0.0)
    busy: dict[str, float] = {w: 0.0 for w in run.workers}
    for t in run.tasks:
        busy[t.thread] += t.duration
    fractions = {
        w: (b / wall if wall > 0 else 0.0) for w, b in busy.items()
    }
    buckets = max(1, buckets)
    timeline = [0.0] * buckets
    if wall > 0:
        dt = wall / buckets
        for t in run.tasks:
            if t.duration <= 0:
                continue
            lo = max(0, min(buckets - 1, int(t.start / dt)))
            hi = max(0, min(buckets - 1, int(max(t.end - 1e-12, t.start) / dt)))
            for b in range(lo, hi + 1):
                edge0, edge1 = b * dt, (b + 1) * dt
                overlap = min(t.end, edge1) - max(t.start, edge0)
                if overlap > 0:
                    timeline[b] += overlap / dt
    return OccupancyReport(
        workers=run.workers,
        busy_s=busy,
        fractions=fractions,
        timeline=timeline,
        wall_s=wall,
    )


# ----------------------------------------------------------------------
# Flop-rate attribution
# ----------------------------------------------------------------------
@dataclass
class KernelRate:
    """Measured performance of one Table-I kernel class."""

    kernel: str
    tasks: int
    flops: float
    seconds: float
    durations: list[float] = field(default_factory=list)

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s: modelled flops over measured seconds."""
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0

    @property
    def is_dense_band(self) -> bool:
        return self.kernel in _DENSE_CLASSES

    @property
    def median_s(self) -> float:
        return _median(self.durations)

    @property
    def iqr_s(self) -> float:
        return _iqr(self.durations)


def flop_attribution(run: RunTrace) -> dict[str, KernelRate]:
    """Per-kernel-class achieved GFLOP/s from annotated task spans.

    Tasks without a ``kernel`` annotation are grouped under
    ``"(unlabelled)"`` so their time is never silently dropped.
    """
    rates: dict[str, KernelRate] = {}
    for t in run.tasks:
        kernel = t.kernel or "(unlabelled)"
        r = rates.get(kernel)
        if r is None:
            r = rates[kernel] = KernelRate(kernel, 0, 0.0, 0.0)
        r.tasks += 1
        r.flops += t.flops
        r.seconds += t.duration
        r.durations.append(t.duration)
    return dict(sorted(rates.items(), key=lambda kv: -kv[1].seconds))


def dense_lowrank_split(rates: dict[str, KernelRate]) -> tuple[float, float]:
    """``(dense_band_s, low_rank_s)`` measured seconds split."""
    dense = sum(r.seconds for r in rates.values() if r.is_dense_band)
    total = sum(r.seconds for r in rates.values())
    return dense, total - dense


# ----------------------------------------------------------------------
# Run-to-run diff
# ----------------------------------------------------------------------
def _median(xs: list[float]) -> float:
    if not xs:
        return 0.0
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def _iqr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    s = sorted(xs)
    n = len(s)

    def q(p: float) -> float:
        idx = p * (n - 1)
        lo = math.floor(idx)
        hi = math.ceil(idx)
        return s[lo] + (s[hi] - s[lo]) * (idx - lo)

    return q(0.75) - q(0.25)


@dataclass
class KernelDelta:
    """Timing change of one kernel class between two runs."""

    kernel: str
    base: KernelRate | None
    head: KernelRate | None
    regressed: bool = False
    improved: bool = False

    @property
    def ratio(self) -> float:
        """Head-over-base median task duration (1.0 = unchanged)."""
        if self.base is None or self.head is None:
            return float("nan")
        b = self.base.median_s
        return self.head.median_s / b if b > 0 else float("inf")


@dataclass
class TraceDiff:
    """Structural + timing comparison of two recorded runs."""

    only_in_base: list[str]
    only_in_head: list[str]
    kernels: list[KernelDelta]
    base_wall_s: float
    head_wall_s: float
    threshold: float

    @property
    def regressions(self) -> list[KernelDelta]:
        return [d for d in self.kernels if d.regressed]

    @property
    def has_regression(self) -> bool:
        return bool(self.regressions)


def trace_diff(
    base: RunTrace, head: RunTrace, *, threshold: float = 0.25
) -> TraceDiff:
    """Compare two runs structurally and per kernel class.

    A kernel class is flagged *regressed* only when its median task
    duration grew by more than ``threshold`` (relative) **and** the
    absolute growth exceeds both runs' inter-quartile ranges, so
    scheduler jitter on one noisy task never trips it.  This is the one
    implementation of that two-condition rule: ``python -m repro
    compare`` and ``tune --verify`` both call it.
    """
    base_names = {t.name for t in base.tasks}
    head_names = {t.name for t in head.tasks}
    base_rates = flop_attribution(base)
    head_rates = flop_attribution(head)
    deltas: list[KernelDelta] = []
    for kernel in sorted(set(base_rates) | set(head_rates)):
        b = base_rates.get(kernel)
        h = head_rates.get(kernel)
        d = KernelDelta(kernel, b, h)
        if b is not None and h is not None and b.median_s > 0:
            grow = h.median_s - b.median_s
            noise = max(b.iqr_s, h.iqr_s)
            if grow > threshold * b.median_s and grow > noise:
                d.regressed = True
            shrink = b.median_s - h.median_s
            if shrink > threshold * b.median_s and shrink > noise:
                d.improved = True
        deltas.append(d)
    return TraceDiff(
        only_in_base=sorted(base_names - head_names),
        only_in_head=sorted(head_names - base_names),
        kernels=deltas,
        base_wall_s=base.wall_s,
        head_wall_s=head.wall_s,
        threshold=threshold,
    )


# ----------------------------------------------------------------------
# Prediction accuracy (simulator vs realized run)
# ----------------------------------------------------------------------
@dataclass
class PredictionAccuracy:
    """How well a simulated (predicted) trace matched a realized one.

    Both sides are :class:`RunTrace` objects over the *same* task graph
    — the predicted one replays DES spans, the realized one records an
    actual execution.  Errors are signed, predicted-relative-to-realized
    (``(pred - real) / real``; positive = the simulator over-estimated).
    Makespans compare task windows (:attr:`RunTrace.window_s`), not full
    wall clocks, so assembly/compression outside the graph never counts
    against the scheduler model.
    """

    predicted_makespan_s: float
    realized_makespan_s: float
    predicted_cp_s: float
    realized_cp_s: float
    predicted_occupancy: float
    realized_occupancy: float
    kernel_median_ratio: dict[str, float] = field(default_factory=dict)

    @property
    def makespan_rel_err(self) -> float:
        if self.realized_makespan_s <= 0:
            return float("inf") if self.predicted_makespan_s > 0 else 0.0
        return (
            self.predicted_makespan_s - self.realized_makespan_s
        ) / self.realized_makespan_s

    @property
    def cp_rel_err(self) -> float:
        if self.realized_cp_s <= 0:
            return float("inf") if self.predicted_cp_s > 0 else 0.0
        return (self.predicted_cp_s - self.realized_cp_s) / self.realized_cp_s

    @property
    def occupancy_abs_err(self) -> float:
        return self.predicted_occupancy - self.realized_occupancy

    def within(self, tolerance: float) -> bool:
        """True when the makespan prediction error is inside ``tolerance``."""
        return abs(self.makespan_rel_err) <= tolerance


def prediction_accuracy(
    predicted: RunTrace, realized: RunTrace
) -> PredictionAccuracy:
    """Quantify a DES prediction against a realized run's trace.

    Critical paths need a dependency graph on each side; a side without
    one reports 0 (and the relative error degrades gracefully).
    """

    def cp_len(run: RunTrace) -> float:
        if run.graph is None or not run.tasks:
            return 0.0
        return critical_path(run).length_s

    def occ(run: RunTrace) -> float:
        if not run.tasks:
            return 0.0
        return occupancy(run).mean_occupancy

    pred_rates = flop_attribution(predicted)
    real_rates = flop_attribution(realized)
    ratios: dict[str, float] = {}
    for kernel in sorted(set(pred_rates) & set(real_rates)):
        rm = real_rates[kernel].median_s
        if rm > 0:
            ratios[kernel] = pred_rates[kernel].median_s / rm
    return PredictionAccuracy(
        predicted_makespan_s=predicted.window_s,
        realized_makespan_s=realized.window_s,
        predicted_cp_s=cp_len(predicted),
        realized_cp_s=cp_len(realized),
        predicted_occupancy=occ(predicted),
        realized_occupancy=occ(realized),
        kernel_median_ratio=ratios,
    )


def render_prediction(acc: PredictionAccuracy, *, width: int = 80) -> str:
    """Text report of one predicted-vs-realized comparison."""
    lines = ["prediction accuracy", "-------------------"]
    lines.append(
        f"makespan: predicted {acc.predicted_makespan_s:.4f} s  "
        f"realized {acc.realized_makespan_s:.4f} s  "
        f"err {acc.makespan_rel_err * 100:+.1f}%"
    )
    lines.append(
        f"critical path: predicted {acc.predicted_cp_s:.4f} s  "
        f"realized {acc.realized_cp_s:.4f} s  "
        f"err {acc.cp_rel_err * 100:+.1f}%"
    )
    lines.append(
        f"occupancy: predicted {acc.predicted_occupancy * 100:.1f}%  "
        f"realized {acc.realized_occupancy * 100:.1f}%  "
        f"err {acc.occupancy_abs_err * 100:+.1f} pts"
    )
    for kernel, ratio in acc.kernel_median_ratio.items():
        lines.append(f"  {kernel:<14} median pred/real x{ratio:5.2f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Rendering (pure stdlib, like repro.obs.report)
# ----------------------------------------------------------------------
def _bar(fraction: float, width: int) -> str:
    n = max(0, min(width, int(round(fraction * width))))
    return "#" * n


def render_analysis(run: RunTrace, *, width: int = 80, buckets: int = 60) -> str:
    """The ``python -m repro analyze`` text report for one run."""
    lines = ["repro trace analytics", "====================="]
    for key in sorted(run.meta):
        lines.append(f"{key:<16} {run.meta[key]}")
    lines.append(f"{'wall clock':<16} {run.wall_s:.3f} s")
    lines.append(f"{'task spans':<16} {len(run.tasks)}")
    lines.append(f"{'workers':<16} {run.n_workers}")
    for t in run.tunings:
        lines.append(
            f"{'band tuning':<16} band {t.get('band_size')} in "
            f"{t['seconds']:.3f} s: {t.get('tiles_probed')} tiles probed, "
            f"{t.get('tiles_discarded')} compressions discarded"
        )
    d = run.tiles
    if d.get("deferred"):
        lines.append(
            f"{'deferred tiles':<16} {d['deferred']} pending: "
            f"{d['born_dense']} born dense off the band; {d['generated']} "
            f"generated by the task that first writes them, in "
            f"{d['generate_s']:.3f} s of its time"
        )
    if d.get("lowrank"):
        # imported here: this module needs nothing beyond the stdlib to load
        from ..linalg.precision import FP32_EPS_FLOOR

        lines.append(
            f"{'precision':<16} {d['fp32']} of {d['lowrank']} low-rank tiles "
            f"fp32 (ε ≥ {FP32_EPS_FLOOR:g})"
        )

    # -- critical path -------------------------------------------------
    lines += ["", "critical path", "-------------"]
    if run.graph is None:
        lines.append(
            "(no dependency graph recorded; run via the graph executors "
            "— e.g. --workers — to capture graph.json)"
        )
        cp = None
    else:
        cp = critical_path(run)
        lines.append(
            f"length {cp.length_s:.3f} s over {len(cp.chain)} tasks "
            f"({cp.chain_fraction * 100:.1f}% of wall clock, "
            f"avg parallelism {cp.parallelism:.2f})"
        )
        lower = cp.window_s / max(cp.n_workers, 1)
        lines.append(
            f"bounds: window/p = {lower:.3f} s, CP = {cp.length_s:.3f} s, "
            f"task window = {cp.window_s:.3f} s, wall = {cp.wall_s:.3f} s"
        )
        shown = cp.chain if len(cp.chain) <= 14 else (
            cp.chain[:7] + [f"... {len(cp.chain) - 14} more ..."] + cp.chain[-7:]
        )
        lines.append("chain: " + " -> ".join(shown))

    # -- occupancy -----------------------------------------------------
    occ = occupancy(run, buckets=min(buckets, max(10, width - 20)))
    lines += ["", "worker occupancy", "----------------"]
    for w in occ.workers:
        lines.append(
            f"{w:<18} busy {occ.busy_s[w]:8.3f} s  "
            f"{occ.fractions[w] * 100:5.1f}%  "
            f"{_bar(occ.fractions[w], width // 3)}"
        )
    lines.append(f"mean occupancy {occ.mean_occupancy * 100:.1f}%")
    if occ.timeline:
        peak = max(occ.timeline) or 1.0
        glyphs = " .:-=+*#%@"
        lines.append(
            "busy workers over time: |"
            + "".join(
                glyphs[min(len(glyphs) - 1,
                           int(v / peak * (len(glyphs) - 1)))]
                for v in occ.timeline
            )
            + "|"
        )

    # -- flop rates ----------------------------------------------------
    rates = flop_attribution(run)
    lines += ["", "achieved flop rate by kernel class",
              "----------------------------------"]
    for r in rates.values():
        lines.append(
            f"{r.kernel:<14} {r.tasks:>6d} tasks {r.seconds:>9.3f} s  "
            f"{r.flops:>11.3e} flop  {r.gflops:>8.2f} Gflop/s"
        )
    dense, lowrank = dense_lowrank_split(rates)
    total = dense + lowrank
    if total > 0:
        lines.append(
            f"{'split':<14} dense-band {dense / total * 100:5.1f}%  "
            f"low-rank {lowrank / total * 100:5.1f}%  (measured seconds)"
        )
    return "\n".join(lines)


def render_diff(diff: TraceDiff, *, width: int = 80) -> str:
    """The ``python -m repro compare`` text report for two obs runs."""
    lines = ["repro trace diff", "================"]
    lines.append(
        f"wall clock: base {diff.base_wall_s:.3f} s -> "
        f"head {diff.head_wall_s:.3f} s"
    )
    if diff.only_in_base:
        lines.append(f"tasks only in base: {len(diff.only_in_base)} "
                     f"(e.g. {', '.join(diff.only_in_base[:4])})")
    if diff.only_in_head:
        lines.append(f"tasks only in head: {len(diff.only_in_head)} "
                     f"(e.g. {', '.join(diff.only_in_head[:4])})")
    if not (diff.only_in_base or diff.only_in_head):
        lines.append("task sets identical")
    lines += ["", "per-kernel-class timing (median task seconds)",
              "---------------------------------------------"]
    for d in diff.kernels:
        b = d.base.median_s if d.base else float("nan")
        h = d.head.median_s if d.head else float("nan")
        flag = "REGRESSED" if d.regressed else (
            "improved" if d.improved else "")
        lines.append(
            f"{d.kernel:<14} base {b:10.6f} s  head {h:10.6f} s  "
            f"x{d.ratio:5.2f}  {flag}"
        )
    if diff.has_regression:
        names = ", ".join(d.kernel for d in diff.regressions)
        lines.append("")
        lines.append(
            f"REGRESSION: {names} slowed beyond the "
            f"{diff.threshold * 100:.0f}% threshold and the measured IQR"
        )
    else:
        lines.append("")
        lines.append("no regression: every class within threshold or noise")
    return "\n".join(lines)
