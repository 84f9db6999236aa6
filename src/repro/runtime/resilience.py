"""Recovery policies and checkpoint/restart for the task executors.

PaRSEC keeps multi-hour factorizations alive through transient kernel
failures, memory pressure, stragglers, and numerical breakdowns; our
executors previously turned any of those into an immediate
``RuntimeSystemError`` abort.  This module adds the production half of
the resilience story (the adversary half — deterministic fault injection
— lives in :mod:`repro.testing.faults`):

* :class:`RecoveryPolicy` / :class:`RecoveryManager` — per-task retry
  with capped exponential backoff, NaN/inf post-condition validation,
  ``NotPositiveDefiniteError`` recovery via escalating diagonal shifts,
  a dense-tile fallback when a recompression cannot certify (the
  H2OPUS-TLR exact-SVD fallback, taken one step further), and a
  cooperative watchdog that requeues stalled tasks;
* :class:`CheckpointConfig` / :class:`Checkpointer` — periodic
  serialization of the completed-tile frontier of a
  :class:`~repro.matrix.BandTLRMatrix` through :mod:`repro.matrix.io`,
  so a factorization killed mid-run resumes from the last consistent
  state and produces the *same* factor as an uninterrupted run.

Rollback correctness: every Cholesky task writes exactly one tile
(``task.out_tile``).  The manager snapshots that tile before the first
attempt and restores it before every re-attempt, so a retried kernel
sees pristine inputs; all other tiles a task reads were finalized by
dependency predecessors and are never touched.  Kernels are
deterministic functions of their inputs (recompression is QR-QR-SVD,
rank-deterministic), hence a recovered run is bitwise identical to a
fault-free run.

Every recovery event flows through :mod:`repro.obs` (``fault_injected``,
``task_retried``, ``task_recovered``, ``npd_shift_applied``,
``densify_fallback``, ``watchdog_requeued``, ``checkpoint_written``)
and is mirrored in the executor report's :class:`ResilienceReport`.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import obs
from ..linalg.tiles import DenseTile, LowRankTile
from ..matrix.tlr_matrix import BandTLRMatrix
from ..utils.exceptions import (
    CheckpointError,
    CompressionError,
    ConfigurationError,
    CorruptedOutputError,
    NotPositiveDefiniteError,
    TaskAbortedError,
    TransientFaultError,
)
from .task import Task, TaskId, TaskKind

__all__ = [
    "RecoveryPolicy",
    "ResilienceReport",
    "RecoveryManager",
    "CheckpointConfig",
    "Checkpointer",
    "build_manager",
    "as_checkpointer",
    "tid_to_str",
    "str_to_tid",
]


# ----------------------------------------------------------------------
# Recovery policy engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the per-task recovery engine.

    Attributes
    ----------
    max_retries:
        Re-dispatch budget per task for *transient* failures (injected
        faults, pool exhaustion, stalls, corrupted outputs).  Exhausting
        it raises :class:`~repro.utils.exceptions.TaskAbortedError`.
    backoff_s / backoff_cap_s:
        Capped exponential backoff between re-attempts:
        ``min(cap, backoff_s * 2**(attempt-1))``.  Deterministic (no
        jitter) so chaos runs stay reproducible.
    validate_outputs:
        Check every task's output tile for NaN/inf after the kernel; a
        violation rolls the tile back and retries (PaRSEC's equivalent
        is user-registered completion callbacks).
    recover_npd / diagonal_shift / max_shifts:
        On ``NotPositiveDefiniteError``, restore the diagonal tile and
        add ``diagonal_shift * mean(|diag|) * 10**(shift-1)`` to its
        diagonal, escalating up to ``max_shifts`` times — the standard
        remedy when accumulated truncation error destroys positive
        definiteness at loose ε.
    densify_fallback:
        On ``CompressionError`` (a recompression that cannot certify its
        accuracy envelope), densify the destination tile and re-run the
        update through the dense GEMM path — exact, no recompression.
    watchdog_timeout_s:
        When set, a monitor thread requeues tasks that run longer than
        this.  Cooperative: the cancellation event interrupts injected
        stalls (and any kernel that polls it); a thread stuck inside
        BLAS cannot be preempted.
    """

    max_retries: int = 3
    backoff_s: float = 0.005
    backoff_cap_s: float = 0.25
    validate_outputs: bool = True
    recover_npd: bool = True
    diagonal_shift: float = 1e-8
    max_shifts: int = 3
    densify_fallback: bool = True
    watchdog_timeout_s: float | None = None


@dataclass
class ResilienceReport:
    """What the recovery engine did during one execution.

    All counters also flow through :mod:`repro.obs` when an observation
    is active; this report is the always-available summary.
    """

    retries: int = 0
    recoveries: int = 0
    npd_shifts: int = 0
    densify_fallbacks: int = 0
    watchdog_requeues: int = 0
    checkpoints_written: int = 0
    tasks_resumed: int = 0


def _validate_finite(tile, tid: TaskId) -> None:
    """NaN/inf post-condition on a task's output tile."""
    if isinstance(tile, LowRankTile):
        ok = bool(np.isfinite(tile.u).all()) and bool(np.isfinite(tile.v).all())
    else:
        ok = bool(np.isfinite(tile.data).all())
    if not ok:
        raise CorruptedOutputError(
            f"task {tid} produced non-finite output", tid
        )


class RecoveryManager:
    """Runs task bodies under the recovery policy; shared by executors.

    One manager serves one execution (serial or parallel); all methods
    are thread-safe.  ``run`` wraps a single task attempt loop around a
    ``compute`` closure that performs the kernel *without committing*
    side effects beyond the destination tile — pool re-association and
    tracker accounting happen in the executor only after ``run`` returns
    successfully, so failed attempts never leak pool buffers.
    """

    def __init__(self, policy: RecoveryPolicy | None = None, injector=None):
        self.policy = policy or RecoveryPolicy()
        self.injector = injector
        self.report = ResilienceReport()
        #: Optional callback invoked with a tile the manager permanently
        #: displaces (densify fallback); the executor releases any pool
        #: buffers the displaced tile owned.
        self.discard = None
        self._lock = threading.Lock()
        self._watch: dict[int, list] = {}  # token -> [deadline, event, tid]
        self._watch_lock = threading.Lock()
        self._monitor: threading.Thread | None = None
        self._stop = threading.Event()
        self._token = 0

    # -- watchdog --------------------------------------------------------
    def _ensure_monitor(self) -> None:
        if self._monitor is not None or self.policy.watchdog_timeout_s is None:
            return
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-watchdog", daemon=True
        )
        self._monitor.start()

    def _monitor_loop(self) -> None:
        poll = min(0.02, self.policy.watchdog_timeout_s / 4)
        while not self._stop.wait(poll):
            now = time.monotonic()
            with self._watch_lock:
                expired = [
                    rec for rec in self._watch.values()
                    if now >= rec[0] and not rec[1].is_set()
                ]
                for rec in expired:
                    rec[1].set()
            for rec in expired:
                with self._lock:
                    self.report.watchdog_requeues += 1
                obs.counter_add("watchdog_requeued")
                obs.event("watchdog_requeue", "resilience",
                          task=tid_to_str(rec[2]))

    @contextmanager
    def _window(self, tid: TaskId):
        """Register one task attempt with the watchdog."""
        timeout = self.policy.watchdog_timeout_s
        if timeout is None:
            yield None
            return
        self._ensure_monitor()
        event = threading.Event()
        with self._watch_lock:
            self._token += 1
            token = self._token
            self._watch[token] = [time.monotonic() + timeout, event, tid]
        try:
            yield event
        finally:
            with self._watch_lock:
                self._watch.pop(token, None)

    def close(self) -> None:
        """Stop the watchdog monitor (idempotent)."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=1.0)
            self._monitor = None

    # -- rollback --------------------------------------------------------
    def _rollback(self, matrix: BandTLRMatrix, dest, snapshot) -> None:
        """Restore the destination tile to ``snapshot``.

        Restores *in place* when the stored tile's type and shape match,
        so arrays owned by the :class:`~repro.runtime.memory_pool
        .MemoryPool` keep their identity across retries (no phantom
        leaks in the pool accounting).  Falls back to replacing the tile
        object — after handing the displaced one to :attr:`discard` —
        when the representation changed (densify fallback).
        """
        current = matrix.tile(*dest)
        if isinstance(current, DenseTile) and isinstance(snapshot, DenseTile):
            np.copyto(current.data, snapshot.data)
            return
        if (
            isinstance(current, LowRankTile)
            and isinstance(snapshot, LowRankTile)
            and current.u.shape == snapshot.u.shape
            and current.v.shape == snapshot.v.shape
        ):
            np.copyto(current.u, snapshot.u)
            np.copyto(current.v, snapshot.v)
            return
        if self.discard is not None:
            self.discard(current)
        matrix.set_tile(*dest, snapshot.copy())

    # -- the attempt loop -------------------------------------------------
    def run(self, task: Task, matrix: BandTLRMatrix, compute):
        """Execute one task under the recovery policy.

        ``compute()`` runs the kernel and returns ``(out, recomp)`` where
        ``out`` is the produced tile for TRSM/GEMM (``None`` for the
        in-place POTRF/SYRK, whose output is the stored destination).
        """
        policy = self.policy
        tid = task.tid
        dest = task.out_tile
        kind = task.kind.name
        # Clean pre-attempt state of the only tile this task writes.
        snapshot = matrix.tile(*dest).copy()
        retries = 0
        shifts = 0
        densified = False
        while True:
            try:
                with self._window(tid) as cancel:
                    if self.injector is not None:
                        self.injector.pre_dispatch(tid, retries, cancel)
                    out, recomp = compute()
                    produced = out if out is not None else matrix.tile(*dest)
                    if self.injector is not None:
                        self.injector.corrupt_output(tid, retries, produced)
                    if policy.validate_outputs:
                        _validate_finite(produced, tid)
            except TransientFaultError as exc:
                retries += 1
                if retries > policy.max_retries:
                    raise TaskAbortedError(
                        f"task {tid} failed after {policy.max_retries} "
                        f"retries: {exc}"
                    ) from exc
                with self._lock:
                    self.report.retries += 1
                obs.counter_add("task_retried", kind=kind)
                self._rollback(matrix, dest, snapshot)
                delay = min(
                    policy.backoff_cap_s,
                    policy.backoff_s * 2 ** (retries - 1),
                ) if policy.backoff_s > 0 else 0.0
                if delay:
                    time.sleep(delay)
            except NotPositiveDefiniteError:
                shifts += 1
                if not policy.recover_npd or shifts > policy.max_shifts:
                    raise
                with self._lock:
                    self.report.npd_shifts += 1
                obs.counter_add("npd_shift_applied")
                shifted = snapshot.copy()
                diag = np.diag(shifted.data)
                scale = float(np.mean(np.abs(diag))) or 1.0
                shift = policy.diagonal_shift * 10 ** (shifts - 1) * scale
                shifted.data[np.diag_indices_from(shifted.data)] += shift
                snapshot = shifted  # later retries keep the shift
                self._rollback(matrix, dest, snapshot)
            except CompressionError:
                if not policy.densify_fallback or densified:
                    raise
                densified = True
                with self._lock:
                    self.report.densify_fallbacks += 1
                obs.counter_add("densify_fallback")
                snapshot = DenseTile(snapshot.to_dense().copy())
                self._rollback(matrix, dest, snapshot)
            else:
                if retries or shifts or densified:
                    with self._lock:
                        self.report.recoveries += 1
                    obs.counter_add("task_recovered", kind=kind)
                return out, recomp


def build_manager(faults, recovery) -> RecoveryManager | None:
    """A :class:`RecoveryManager` for the given executor kwargs.

    ``faults`` may be ``None``, a spec string (parsed with seed 0), a
    :class:`~repro.testing.faults.FaultPlan`, or a ready injector
    (anything with ``pre_dispatch``/``corrupt_output``).  ``recovery``
    may be ``None`` (default policy) or a :class:`RecoveryPolicy`.
    Returns ``None`` when neither is given — the executors then skip
    snapshotting entirely (the historical zero-overhead path).
    """
    if faults is None and recovery is None:
        return None
    injector = None
    if faults is not None:
        # Lazy import: repro.runtime must stay importable without the
        # chaos-testing package.
        from ..testing.faults import FaultPlan

        if isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        injector = faults.injector() if isinstance(faults, FaultPlan) else faults
    return RecoveryManager(recovery, injector)


# ----------------------------------------------------------------------
# Checkpoint / restart
# ----------------------------------------------------------------------
_MANIFEST_VERSION = 1


def tid_to_str(tid: TaskId) -> str:
    """Serialize a task id: ``(TaskKind.GEMM, 3, 2, 1) -> "GEMM:3:2:1"``."""
    return ":".join([tid[0].name, *(str(x) for x in tid[1:])])


#: Index arity of each task class: POTRF(k), TRSM(m,k), SYRK(n,k), GEMM(m,n,k).
_TID_ARITY = {
    TaskKind.POTRF: 1,
    TaskKind.TRSM: 2,
    TaskKind.SYRK: 2,
    TaskKind.GEMM: 3,
}


def str_to_tid(s: str) -> TaskId:
    """Inverse of :func:`tid_to_str`."""
    parts = s.split(":")
    try:
        kind = TaskKind[parts[0]]
        tid = (kind, *(int(x) for x in parts[1:]))
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"malformed task id {s!r} in manifest") from exc
    if len(tid) - 1 != _TID_ARITY[kind]:
        raise CheckpointError(f"malformed task id {s!r} in manifest")
    return tid


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often to checkpoint.

    Attributes
    ----------
    directory:
        Checkpoint directory (created on first write).
    every:
        Write after this many newly *completed panels* — a panel is done
        when its POTRF, TRSMs, SYRKs and GEMMs have all executed, which
        is the factorization's natural consistency frontier.
    keep:
        Retain this many most-recent checkpoints; older ones are pruned.
    """

    directory: str | Path
    every: int = 1
    keep: int = 2


@dataclass
class CheckpointState:
    """A restored checkpoint: the matrix frontier + completed task set."""

    matrix: BandTLRMatrix
    completed: set[TaskId]
    panels_done: int
    seq: int


class Checkpointer:
    """Atomic writer/reader of factorization checkpoints.

    A checkpoint is a pair of files in the configured directory::

        ckpt-<seq>.npz    the full tile state (matrix/io archive)
        ckpt-<seq>.json   manifest: geometry signature + completed tasks

    The manifest is written *after* the matrix archive and is the commit
    point — a crash mid-write leaves at most a dangling ``.npz`` that
    :meth:`load_latest` ignores.  Both files are written to a temporary
    name and atomically renamed.
    """

    def __init__(self, config: CheckpointConfig):
        if config.every < 1:
            raise CheckpointError("CheckpointConfig.every must be >= 1")
        self.config = config
        self.directory = Path(config.directory)
        self._seq = 0
        self._lock = threading.Lock()

    # -- writing ---------------------------------------------------------
    def save(
        self,
        matrix: BandTLRMatrix,
        completed: set[TaskId],
        panels_done: int,
    ) -> Path:
        """Write one checkpoint; returns the manifest path."""
        from ..matrix.io import save_matrix

        with self._lock:
            self._seq += 1
            seq = self._seq
        self.directory.mkdir(parents=True, exist_ok=True)
        npz_tmp = self.directory / f"ckpt-{seq}.tmp.npz"
        npz_final = self.directory / f"ckpt-{seq}.npz"
        save_matrix(matrix, npz_tmp)
        os.replace(npz_tmp, npz_final)
        manifest = {
            "version": _MANIFEST_VERSION,
            "seq": seq,
            "matrix_file": npz_final.name,
            "n": matrix.n,
            "tile_size": matrix.desc.tile_size,
            "band_size": matrix.band_size,
            "ntiles": matrix.ntiles,
            "panels_done": panels_done,
            "completed": sorted(tid_to_str(t) for t in completed),
        }
        json_tmp = self.directory / f"ckpt-{seq}.tmp.json"
        json_final = self.directory / f"ckpt-{seq}.json"
        json_tmp.write_text(json.dumps(manifest))
        os.replace(json_tmp, json_final)
        self._prune(seq)
        obs.counter_add("checkpoint_written")
        obs.event("checkpoint", "resilience", seq=seq,
                  completed=len(completed))
        return json_final

    def _prune(self, newest_seq: int) -> None:
        keep = max(1, self.config.keep)
        for manifest in self.directory.glob("ckpt-*.json"):
            try:
                seq = int(manifest.stem.split("-")[1])
            except (IndexError, ValueError):
                continue
            if seq <= newest_seq - keep:
                manifest.unlink(missing_ok=True)
                (self.directory / f"ckpt-{seq}.npz").unlink(missing_ok=True)

    # -- reading ---------------------------------------------------------
    def load_latest(self) -> CheckpointState | None:
        """The most recent complete checkpoint, or ``None``; one that
        cannot be read is a :class:`CheckpointError` naming the file (an
        older checkpoint is never taken in its place)."""
        from ..matrix.io import load_matrix

        if not self.directory.is_dir():
            return None
        best: tuple[int, Path] | None = None
        for manifest in self.directory.glob("ckpt-*.json"):
            try:
                seq = int(manifest.stem.split("-")[1])
            except (IndexError, ValueError):
                continue
            if best is None or seq > best[0]:
                best = (seq, manifest)
        if best is None:
            return None
        seq, manifest_path = best
        try:
            meta = json.loads(manifest_path.read_text())
            version = meta.get("version")  # AttributeError: not an object
            if version != _MANIFEST_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint manifest version "
                    f"{version!r} in {manifest_path}"
                )
            npz = self.directory / meta["matrix_file"]
            completed = {str_to_tid(s) for s in meta["completed"]}
            panels_done = int(meta.get("panels_done", 0))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint manifest {manifest_path}: {exc!r}"
            ) from exc
        if not npz.exists():
            raise CheckpointError(f"checkpoint matrix archive missing: {npz}")
        try:
            matrix = load_matrix(npz)
        except (
            OSError, EOFError, ValueError, KeyError,
            zipfile.BadZipFile, zlib.error, ConfigurationError,
        ) as exc:
            raise CheckpointError(
                f"corrupt checkpoint archive {npz}: {exc!r}"
            ) from exc
        with self._lock:
            self._seq = max(self._seq, seq)
        return CheckpointState(
            matrix=matrix,
            completed=completed,
            panels_done=panels_done,
            seq=seq,
        )

    def validate_against(self, graph, matrix: BandTLRMatrix,
                         state: CheckpointState) -> None:
        """Refuse to restore a checkpoint into the wrong problem."""
        ck = state.matrix
        if (ck.n, ck.desc.tile_size, ck.band_size) != (
            matrix.n, matrix.desc.tile_size, matrix.band_size
        ):
            raise CheckpointError(
                f"checkpoint geometry (n={ck.n}, b={ck.desc.tile_size}, "
                f"band={ck.band_size}) does not match the matrix "
                f"(n={matrix.n}, b={matrix.desc.tile_size}, "
                f"band={matrix.band_size})"
            )
        unknown = [t for t in state.completed if t not in graph.tasks]
        if unknown:
            raise CheckpointError(
                f"checkpoint lists {len(unknown)} tasks not in the graph "
                f"(e.g. {tid_to_str(unknown[0])}) — wrong problem?"
            )


def as_checkpointer(checkpoint) -> Checkpointer | None:
    """Coerce an executor's ``checkpoint`` kwarg.

    Accepts ``None``, a directory path (string or ``Path``), a
    :class:`CheckpointConfig`, or a ready :class:`Checkpointer`.
    """
    if checkpoint is None:
        return None
    if isinstance(checkpoint, Checkpointer):
        return checkpoint
    if isinstance(checkpoint, CheckpointConfig):
        return Checkpointer(checkpoint)
    return Checkpointer(CheckpointConfig(directory=checkpoint))
