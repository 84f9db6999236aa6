"""Outside-in span tracer for the end-to-end benchmark.

The benchmark measures each layer of ``repro`` from outside: while a
:class:`Tracer` is installed, the public entry points listed in
:func:`repro_targets` are rebound -- on their class, or in every loaded
``repro`` module that imported the function by name -- to wrappers that
keep a per-thread span stack.  A span's self time is its duration minus
the durations of its child spans, so time spent rounding inside a GEMM is
charged to ``backends.recompress`` and not to the GEMM class.  Counts are
taken at the same boundary.  Spans stay in memory; :meth:`Tracer.dump`
writes them out when the run ends.

Nothing here imports :mod:`repro.obs`: the benchmark has to be able to
price it.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span stack, per-name aggregates and the rebinding machinery."""

    def __init__(self) -> None:
        # (id, parent id, name, start, end, thread name, operation id)
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # free-form sums the after-hooks feed (ranks, widths, flops ...)
        self.sums: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _close(self, stack: list, name: str) -> None:
        end = time.perf_counter()
        sid, _, start, child_s, op = stack.pop()
        dur = end - start
        parent = None
        if stack:
            stack[-1][3] += dur
            parent = stack[-1][0]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child_s
        self.spans.append(
            (sid, parent, name, start, end, threading.current_thread().name, op)
        )

    @contextmanager
    def span(self, name: str, op=None):
        """A span opened by the benchmark itself (the root of one operation)."""
        stack = self._stack()
        stack.append([next(self._ids), name, time.perf_counter(), 0.0, op])
        try:
            yield
        finally:
            self._close(stack, name)

    def _wrap(self, fn, name, after):
        """Timing wrapper around ``fn``.

        ``name`` is the span name, or a callable ``(args, result) -> name``
        for entry points that dispatch on their operands.  A call made
        directly under a span of the same name passes through, so a
        backend delegating to another backend's ``compress`` (or
        ``solve_many`` calling ``solve_spd``) counts once.
        """
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if fixed is not None and stack and stack[-1][1] == fixed:
                return fn(*args, **kwargs)
            op = stack[-1][4] if stack else None
            stack.append([next(self._ids), fixed, time.perf_counter(), 0.0, op])
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                raise
            self._close(stack, fixed if fixed is not None else name(args, out))
            if after is not None:
                after(self, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- rebinding -------------------------------------------------------
    def install(self, targets) -> None:
        """Rebind every ``(owner, attribute, name, after)`` target."""
        for owner, attr, name, after in targets:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, after))
                else:
                    new = self._wrap(raw, name, after)
                setattr(owner, attr, new)
            else:
                # A module-level function: rebind it wherever it was imported.
                raw = getattr(owner, attr)
                new = self._wrap(raw, name, after)
                _rebind(attr, raw, new)
            self._patches.append((owner, attr, raw, new))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw, new = self._patches.pop()
            if isinstance(owner, type):
                setattr(owner, attr, raw)
            else:
                # scanning again also restores modules first imported while
                # the wrapper was in place
                _rebind(attr, new, raw)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ----------------------------------------------------------
    def dump(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "thread", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _rebind(attr: str, old, new) -> None:
    """Point every loaded ``repro`` module's ``attr`` from ``old`` to ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.startswith("repro"):
            if mod.__dict__.get(attr) is old:
                setattr(mod, attr, new)


# ----------------------------------------------------------------------
# The wrapped entry points of repro, by layer
# ----------------------------------------------------------------------
def _after_recompress(tr: Tracer, args, out) -> None:
    _backend, c, u_upd = args[:3]
    tr.sums["recompress.width_in"] += c.rank + u_upd.shape[1]
    tr.sums["recompress.rank_out"] += out.rank_after


def _after_run_batch(tr: Tracer, args, out) -> None:
    tr.sums["batched.items"] += len(args[0])


def _after_autotune(tr: Tracer, args, out) -> None:
    tr.sums["autotuner.band_size"] = out[1].band_size


def _after_solve(tr: Tracer, args, out) -> None:
    # solve_many takes a list of right-hand sides, solve_spd one array
    tr.sums["solve.rhs"] += len(args[1]) if isinstance(args[1], list) else 1


def _after_cholesky(tr: Tracer, args, out) -> None:
    from repro.linalg.tiles import LowRankTile

    matrix = args[0]
    for kind, flops in out.counter.per_class.items():
        tr.sums[f"gflop.{kernel_label(kind)}"] += flops / 1e9
    tr.sums["factorize.rank_growth_events"] += out.rank_growth_events
    tr.sums["factorize.max_rank"] = max(
        tr.sums["factorize.max_rank"], out.max_rank_seen
    )
    ranks = [t.rank for t in matrix.tiles.values() if isinstance(t, LowRankTile)]
    tr.sums["matrix.factor_mb"] = (
        sum(t.memory_bytes() for t in matrix.tiles.values()) / 1e6
    )
    tr.sums["matrix.lowrank_tiles"] = len(ranks)
    tr.sums["matrix.mean_rank"] = sum(ranks) / len(ranks) if ranks else 0.0


def kernel_label(kind) -> str:
    """``KernelClass.GEMM_LR_DENSE`` -> ``gemm_lr_dense`` (POTRF is ``potrf``)."""
    label = kind.name.lower()
    return "potrf" if label == "potrf_dense" else label


def repro_targets() -> list[tuple]:
    """``(owner, attribute, span name, after-hook)`` for every wrapped entry point."""
    from repro.core import autotuner, factorize, mle, solve
    from repro.linalg import backends, batched, hcore
    from repro.linalg.tiles import DenseTile
    from repro.matrix.tlr_matrix import BandTLRMatrix
    from repro.service.cache import FactorRecipe
    from repro.statistics.problem import CovarianceProblem

    def by_format(op, operand):
        def name(args, _out):
            dense = isinstance(args[operand], DenseTile)
            return f"hcore.{op}_dense" if dense else f"hcore.{op}_lr"

        return name

    def gemm_name(_args, out):
        return "hcore." + kernel_label(out[1])

    compress = [
        (cls, "compress", "backends.compress", None)
        for cls in (
            backends.SVDBackend,
            backends.RandomizedSVDBackend,
            backends.AutoBackend,
        )
    ]
    return compress + [
        (CovarianceProblem, "tile", "statistics.tile_gen", None),
        (BandTLRMatrix, "from_problem", "matrix.assemble", None),
        (
            backends.CompressionBackend,
            "recompress_update",
            "backends.recompress",
            _after_recompress,
        ),
        (hcore, "potrf_dense", "hcore.potrf", None),
        (hcore, "trsm_auto", by_format("trsm", 1), None),
        (hcore, "syrk_auto", by_format("syrk", 0), None),
        (hcore, "gemm_auto", gemm_name, None),
        (batched, "run_batch", "batched.run_batch", _after_run_batch),
        (autotuner, "autotune_matrix", "autotuner.tune", _after_autotune),
        (factorize, "tlr_cholesky", "factorize", _after_cholesky),
        (mle, "log_likelihood", "solve.loglik", None),
        (solve, "solve_many", "solve.solve_many", _after_solve),
        (solve, "solve_spd", "solve.solve_many", _after_solve),
        (FactorRecipe, "build", "cache.build", None),
    ]
