"""Configuration sweep through the discrete-event simulator.

The sweep evaluates a grid of candidate configurations — BAND_SIZE
(every band Algorithm 1's [0.67, 1] fluctuation window admits, plus its
point decision), scheduler policy, distribution variant, and
process/core counts — by simulating the calibrated task graph through
:func:`repro.runtime.simulate_schedule` on the PR-1 workpool, then
ranks candidates by predicted makespan.

Determinism: the grid enumerates in a fixed order, the DES is
deterministic, and the ranking key is a pure function of the simulated
metrics and the candidate coordinates — no wall clock, no RNG, no
dict-iteration ambiguity.  Equal-makespan candidates resolve by the
shared tie-break of :func:`repro.core.tie_break_band` (smallest band
first — the conservative side of Section VIII-B), then by scheduler,
distribution, rank and core order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..core.autotuner import band_candidates, tune_band_size
from ..linalg.backends import default_backend
from ..runtime.graph import build_cholesky_graph
from ..runtime.simulator import DISTRIBUTION_NAMES, simulate_schedule
from ..runtime.workpool import parallel_map
from ..utils.exceptions import ConfigurationError
from .calibrate import Calibration

__all__ = [
    "SCHEDULERS",
    "TuneCandidate",
    "TuneGrid",
    "parse_grid",
    "CandidateReport",
    "TuneResult",
    "default_bands",
    "sweep",
]

#: Scheduler policies in sweep (and tie-break) order.
SCHEDULERS = ("priority", "fifo", "lifo")


@dataclass(frozen=True)
class TuneCandidate:
    """One point of the configuration grid."""

    band_size: int
    scheduler: str = "priority"
    distribution: str = "band"
    ranks: int = 1
    cores: int = 2

    def to_dict(self) -> dict:
        return {
            "band_size": self.band_size,
            "scheduler": self.scheduler,
            "distribution": self.distribution,
            "ranks": self.ranks,
            "cores": self.cores,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TuneCandidate":
        return cls(**d)

    def sort_key(self) -> tuple:
        """Deterministic secondary ordering (after predicted makespan).

        Ascending band first — this *is* the shared tie-break rule of
        :func:`repro.core.tie_break_band` applied through a sort key —
        then scheduler/distribution in declaration order, then fewer
        ranks/cores (cheaper deployments win ties).
        """
        return (
            self.band_size,
            SCHEDULERS.index(self.scheduler),
            DISTRIBUTION_NAMES.index(self.distribution),
            self.ranks,
            self.cores,
        )


@dataclass(frozen=True)
class TuneGrid:
    """The candidate axes of one sweep (``None`` bands = derived)."""

    bands: tuple[int, ...] | None = None
    schedulers: tuple[str, ...] = SCHEDULERS
    distributions: tuple[str, ...] = ("band",)
    ranks: tuple[int, ...] = (1,)
    cores: tuple[int, ...] | None = None


def parse_grid(spec: str) -> TuneGrid:
    """Parse a ``--grid`` spec like ``band=1,2,3;scheduler=priority,fifo``.

    Axes: ``band`` (ints), ``scheduler`` (priority/fifo/lifo), ``dist``
    (band/2d/1d), ``ranks`` (ints), ``cores`` (ints).  Omitted axes keep
    their defaults; unknown axes or values, a non-integer where integers
    are expected, and an axis given twice raise
    :class:`ConfigurationError`.
    """
    axes = {"band": "bands", "scheduler": "schedulers",
            "dist": "distributions", "ranks": "ranks", "cores": "cores"}
    names = {"scheduler": SCHEDULERS, "dist": DISTRIBUTION_NAMES}
    kwargs: dict = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigurationError(
                f"grid axis {part!r} is not of the form key=v1,v2"
            )
        key, _, vals = part.partition("=")
        key = key.strip()
        items = tuple(v.strip() for v in vals.split(",") if v.strip())
        if not items:
            raise ConfigurationError(f"grid axis {key!r} has no values")
        if key not in axes:
            raise ConfigurationError(
                f"unknown grid axis {key!r} (axes: {', '.join(axes)})"
            )
        if axes[key] in kwargs:
            raise ConfigurationError(f"grid axis {key!r} is given twice")
        if key in names:
            for v in items:
                if v not in names[key]:
                    raise ConfigurationError(
                        f"unknown {key} {v!r} (choose from {names[key]})"
                    )
        else:
            try:
                items = tuple(int(v) for v in items)
            except ValueError:
                raise ConfigurationError(
                    f"grid axis {key!r} takes integers, got {vals.strip()!r}"
                ) from None
        kwargs[axes[key]] = items
    return TuneGrid(**kwargs)


@dataclass
class CandidateReport:
    """Simulated metrics of one evaluated candidate."""

    candidate: TuneCandidate
    makespan_s: float
    critical_path_s: float
    mean_occupancy: float
    bytes_sent: int
    messages: int
    total_flops: float
    n_tasks: int

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate.to_dict(),
            "makespan_s": self.makespan_s,
            "critical_path_s": self.critical_path_s,
            "mean_occupancy": self.mean_occupancy,
            "bytes_sent": self.bytes_sent,
            "messages": self.messages,
            "total_flops": self.total_flops,
            "n_tasks": self.n_tasks,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CandidateReport":
        d = dict(d)
        d["candidate"] = TuneCandidate.from_dict(d["candidate"])
        return cls(**d)


@dataclass
class TuneResult:
    """Outcome of one sweep: ranked candidates plus provenance."""

    candidates: list[CandidateReport]
    algorithm1_band: int
    fluctuation_window: tuple[int, int]
    problem: dict = field(default_factory=dict)
    calibrated_from: tuple[str, ...] = ()
    verify: dict | None = None

    @property
    def winner(self) -> CandidateReport:
        return self.candidates[0]

    def config(self) -> dict:
        """The winning configuration as an ``execute --config`` document."""
        w = self.winner.candidate
        p = self.problem
        return {
            "n": int(p.get("n", 0)),
            "tile": int(p.get("tile", 0)),
            "band": w.band_size,
            "accuracy": float(p.get("accuracy", 1e-8)),
            "seed": int(p.get("seed", 0)),
            "compression": p.get("compression", default_backend().name),
            "executor": "threads" if w.ranks == 1 else "processes",
            "workers": w.cores,
            "ranks": w.ranks,
            "scheduler": w.scheduler,
        }

    def to_json(self) -> str:
        return json.dumps(
            {
                "candidates": [c.to_dict() for c in self.candidates],
                "algorithm1_band": self.algorithm1_band,
                "fluctuation_window": list(self.fluctuation_window),
                "problem": self.problem,
                "calibrated_from": list(self.calibrated_from),
                "verify": self.verify,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "TuneResult":
        d = json.loads(text)
        problem = d.get("problem", {})
        # Retired keys: ε fixes a factor's precision; kernels run one task
        # at a time.
        problem.pop("precision", None)
        problem.pop("batch", None)
        return cls(
            candidates=[CandidateReport.from_dict(c) for c in d["candidates"]],
            algorithm1_band=d["algorithm1_band"],
            fluctuation_window=tuple(d["fluctuation_window"]),
            problem=problem,
            calibrated_from=tuple(d.get("calibrated_from", ())),
            verify=d.get("verify"),
        )

    def write(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path


def _predicted_critical_path(graph, sim) -> float:
    from ..obs.analytics import critical_path
    from .verify import predicted_run

    run = predicted_run(graph, sim)
    if not run.tasks:
        return 0.0
    return critical_path(run).length_s


def default_bands(calibration: Calibration, ntiles: int) -> tuple[int, ...]:
    """Algorithm 1's fluctuation-window candidates ∪ its point decision."""
    decision = tune_band_size(
        calibration.rank_grid_for(ntiles), calibration.tile_size
    )
    return tuple(
        sorted(set(band_candidates(decision)) | {decision.band_size})
    )


def sweep(
    calibration: Calibration,
    *,
    grid: TuneGrid | None = None,
    ntiles: int | None = None,
    workers: int | None = None,
    smoke: bool = False,
) -> TuneResult:
    """Evaluate the candidate grid through the DES; rank by makespan.

    ``ntiles`` targets a different problem size than recorded (the rank
    model extrapolates); by default the sweep targets the recorded
    geometry.  Either way a task costs its class's recorded mean duration
    (:class:`~repro.runtime.machine.MeasuredRates`).  ``workers`` bounds
    the sweep's own evaluation parallelism (the PR-1 workpool);
    ``smoke`` trims the grid for CI.
    """
    grid = grid or TuneGrid()
    nt = ntiles or calibration.ntiles
    decision = tune_band_size(
        calibration.rank_grid_for(nt), calibration.tile_size
    )
    bands = grid.bands or default_bands(calibration, nt)
    bands = tuple(sorted({b for b in bands if 1 <= b <= nt}))
    if not bands:
        raise ConfigurationError("the sweep has no feasible band candidate")
    schedulers = grid.schedulers
    cores = grid.cores or (max(calibration.n_workers, 2),)
    if smoke:
        bands = bands[:3]
        schedulers = tuple(s for s in schedulers if s in ("priority", "fifo"))

    rank_fn = calibration.rank_fn(nt)
    graphs = {
        band: build_cholesky_graph(
            nt, band, calibration.tile_size, rank_fn, fused=True
        )
        for band in bands
    }

    candidates = [
        TuneCandidate(
            band_size=band,
            scheduler=s,
            distribution=d,
            ranks=r,
            cores=c,
        )
        for band in bands
        for s in schedulers
        for d in grid.distributions
        for r in grid.ranks
        for c in cores
    ]

    def evaluate(cand: TuneCandidate) -> CandidateReport:
        graph = graphs[cand.band_size]
        sim = simulate_schedule(
            graph,
            ranks=cand.ranks,
            cores=cand.cores,
            rates=calibration.rates,
            scheduler=cand.scheduler,
            distribution=cand.distribution,
            collect_trace=True,
            task_overhead_s=calibration.task_overhead_s,
        )
        return CandidateReport(
            candidate=cand,
            makespan_s=float(sim.makespan),
            critical_path_s=_predicted_critical_path(graph, sim),
            mean_occupancy=float(sim.occupancy.mean()),
            bytes_sent=int(sim.comm.bytes_sent),
            messages=int(sim.comm.messages),
            total_flops=float(sim.total_flops),
            n_tasks=graph.n_tasks,
        )

    n_workers = workers if workers and workers > 0 else min(len(candidates), 8)
    reports = parallel_map(
        evaluate, candidates, n_workers, label="tune-sweep"
    )
    reports.sort(key=lambda r: (r.makespan_s, r.candidate.sort_key()))
    meta = calibration.meta
    recorded_n = meta.get("n", calibration.ntiles * calibration.tile_size)
    problem = {
        "n": recorded_n if nt == calibration.ntiles
        else nt * calibration.tile_size,
        "tile": meta.get("tile", calibration.tile_size),
        "ntiles": nt,
        "accuracy": meta.get("accuracy", 1e-8),
        "seed": meta.get("seed", 0),
        "compression": meta.get("compression", default_backend().name),
    }
    return TuneResult(
        candidates=reports,
        algorithm1_band=decision.band_size,
        fluctuation_window=decision.band_size_range,
        problem=problem,
        calibrated_from=calibration.sources,
    )
