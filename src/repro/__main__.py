"""Command-line interface: ``python -m repro <command>``.

Eleven commands mirroring the library's main entry points:

* ``info``      — version and subsystem inventory;
* ``demo``      — compress → auto-tune → factorize → solve, with a report;
* ``tune``      — run Algorithm 1 on a problem and print its cost table;
* ``simulate``  — replay a Cholesky DAG on the machine simulator;
* ``execute``   — run the DAG for real on a selectable backend
  (``--executor threads`` thread pool, ``--executor processes``
  multi-process ranks, ``--executor sim`` DES prediction), with
  occupancy/Gantt/Chrome-trace artifacts;
* ``report``    — render the telemetry of a ``--obs`` run as a text report;
* ``analyze``   — trace analytics on a ``--obs`` run: realized critical
  path, per-worker occupancy, per-kernel achieved GFLOP/s;
* ``compare``   — noise-aware structural diff of two ``--obs`` trace
  directories (exit 1 on a gated regression);
* ``serve``     — run the factorize-once/solve-many solver service
  against generated closed-loop traffic and print the serving report
  (latency percentiles, batch widths, cache + queue outcomes);
* ``top``       — live terminal dashboard for a ``serve --listen`` run;
* ``bench-service`` — the batched-vs-one-at-a-time serving load tool:
  two load-generator arms against the same problem, p50/p95/p99 printed
  side by side.

Timing the repository itself is not a subcommand: ``benchmarks/e2e/run.py``
prints a number, ``tools/bench_pairs.py`` decides a claim.

``demo`` and ``execute`` accept ``--obs DIR``: the run executes under an
active :mod:`repro.obs` observation and writes the standard artifacts
(``trace.json``, ``events.jsonl``, ``summary.json``, ``metrics.prom``,
plus ``graph.json`` when a graph executor ran) into ``DIR``.  Under
``execute --executor processes`` that trace is the run's one cross-rank
trace: a lane per rank and a ``comm`` span per wire hop.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _observed(args: argparse.Namespace, body) -> int:
    """Run ``body`` under an observation when ``--obs DIR`` was given.

    Writes the standard artifact set into the directory afterwards and
    prints where they landed; without ``--obs`` this is a plain call.
    """
    outdir = getattr(args, "obs", None)
    if outdir is None:
        return body()
    from repro import obs

    meta = {
        k: v
        for k, v in vars(args).items()
        if v is not None and isinstance(v, (str, int, float, bool))
    }
    with obs.observe(meta=meta) as run:
        rc = body()
    paths = run.write(outdir)
    print(f"observability artifacts in {outdir}: "
          + ", ".join(p.name for p in sorted(paths.values())))
    print(f"render with: python -m repro report {outdir}")
    return rc


def _cmd_info(args: argparse.Namespace) -> int:
    import repro

    print(f"repro {repro.__version__}")
    print(__doc__.splitlines()[0])
    print()
    print("subsystems:")
    for name, what in [
        ("repro.geometry", "point clouds, Morton ordering, distances"),
        ("repro.statistics", "Matérn kernels, covariance problems (STARS-H role)"),
        ("repro.linalg", "tiles, compression, HCORE kernels, flop models"),
        ("repro.matrix", "BAND-DENSE-TLR containers, memory accounting, I/O"),
        ("repro.distribution", "2D/1D block-cyclic + hybrid band layouts"),
        ("repro.runtime", "PTG graphs, executors, machine simulator"),
        ("repro.core", "factorization, auto-tuner, solves, MLE, API"),
        ("repro.analysis", "rank models, metrics, Gantt, reporting"),
    ]:
        print(f"  {name:<20} {what}")
    return 0


def _fault_plan(args: argparse.Namespace):
    """The seeded ``FaultPlan`` of ``--faults``/``--fault-seed``, or None."""
    if args.faults is None:
        return None
    from repro.testing import FaultPlan

    return FaultPlan.parse(args.faults, seed=args.fault_seed)


def _print_resilience(rep) -> None:
    """One line summarizing what the recovery engine did, if anything."""
    r = getattr(rep, "resilience", None)
    if r is None:
        return
    parts = [f"retries={r.retries}", f"recovered={r.recoveries}"]
    if r.npd_shifts:
        parts.append(f"npd_shifts={r.npd_shifts}")
    if r.densify_fallbacks:
        parts.append(f"densified={r.densify_fallbacks}")
    if r.watchdog_requeues:
        parts.append(f"watchdog_requeues={r.watchdog_requeues}")
    if r.checkpoints_written:
        parts.append(f"checkpoints={r.checkpoints_written}")
    if r.tasks_resumed:
        parts.append(f"resumed={r.tasks_resumed}")
    print("resilience: " + ", ".join(parts))


def _fp32_tiles(pr) -> str:
    """How many low-rank tiles the ε rule stored in single precision."""
    return f"{pr.demoted_tiles} of {pr.lowrank_tiles} low-rank tiles fp32"


def _apply_config(args: argparse.Namespace) -> int:
    """Overlay an emitted ``tune`` config.json onto the parsed namespace.

    Only keys that name a flag of the subcommand are applied (``demo`` has
    no ``--band``/``--executor``, so those entries are ignored there);
    explicit command-line flags are overridden by the config — the file
    is the single source of truth for a reproduced run.  Each applied
    value is checked as its flag would be: the flag's type and choices,
    and ``null`` only where the flag defaults to none.  Returns 2 on a
    missing or unparsable path or a bad value, before any work; else 0.
    """
    path = getattr(args, "config", None)
    if path is None:
        return 0
    import json
    from pathlib import Path

    p = Path(path)
    if not p.is_file():
        print(f"error: --config {p} does not exist", file=sys.stderr)
        return 2
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        print(f"error: --config {p} is not valid JSON: {exc}",
              file=sys.stderr)
        return 2
    if not isinstance(doc, dict):
        print(f"error: --config {p} must hold a JSON object",
              file=sys.stderr)
        return 2
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ).choices[args.command]
    flags = {
        a.dest: a for a in sub._actions if a.default is not argparse.SUPPRESS
    }
    values = {}
    for key, value in doc.items():
        if key not in flags:
            continue
        problem = _config_value_problem(flags[key], value)
        if problem:
            print(f"error: --config {p}: {key} {problem}", file=sys.stderr)
            return 2
        values[key] = value
    for key, value in values.items():
        setattr(args, key, value)
    return 0


def _config_value_problem(action: argparse.Action, value) -> str | None:
    """Why ``value`` is not one the flag ``action`` would accept, or None."""
    if value is None:
        return None if action.default is None else "must not be null"
    if action.nargs == 0:  # store_true
        expected, kind = (bool,), "true or false"
    elif action.type is int:
        expected, kind = (int,), "an integer"
    elif action.type is float:
        expected, kind = (int, float), "a number"
    else:
        expected, kind = (str,), "a string"
    if isinstance(value, bool) != (bool in expected) or not isinstance(
        value, expected
    ):
        return f"must be {kind}, got {value!r}"
    if action.choices is not None and value not in action.choices:
        return f"must be one of {list(action.choices)}, got {value!r}"
    return None


def _cmd_demo(args: argparse.Namespace) -> int:
    rc = _apply_config(args)
    if rc:
        return rc
    return _observed(args, lambda: _run_demo(args))


def _run_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from repro import TLRSolver, st_3d_exp_problem
    from repro.runtime import default_workers

    print(f"generating st-3D-exp problem: n={args.n}, tile={args.tile}")
    problem = st_3d_exp_problem(args.n, args.tile, seed=args.seed)
    solver = TLRSolver.from_problem(problem, accuracy=args.accuracy)
    workers = args.workers or default_workers()
    t0 = time.perf_counter()
    rep = solver.factorize(
        n_workers=workers,
        faults=_fault_plan(args),
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    print(f"factorized in {time.perf_counter() - t0:.2f}s on {workers} workers "
          f"({rep.counter.total / 1e9:.2f} modelled Gflop)")
    # read after factorize(): the assembly leaves tiles pending until then
    mn, avg, mx = solver.matrix.rank_stats()
    print(f"factor at eps={args.accuracy:g}: "
          f"band={solver.band_size}, ranks {mn}/{avg:.1f}/{mx}")
    pr = rep.precision_report
    print(f"precision: {_fp32_tiles(pr)}, off-band bytes "
          f"{pr.offband_saving_factor:.2f}x smaller")
    _print_resilience(rep)

    rng = np.random.default_rng(args.seed)
    x_true = rng.standard_normal(args.n)
    rhs = np.asarray(problem.dense() @ x_true)
    x = solver.solve(rhs)
    err = float(np.linalg.norm(x - x_true) / np.linalg.norm(x_true))
    print(f"solve relative error: {err:.2e}")
    mem = solver.memory_report()
    print(f"memory: static {mem.static_bytes / 2**20:.1f} MiB, dynamic "
          f"{mem.dynamic_bytes / 2**20:.1f} MiB "
          f"({mem.reduction_factor:.2f}x)")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    if args.from_run:
        return _run_tune_sweep(args)
    from repro import TruncationRule, st_3d_exp_problem
    from repro.analysis import format_table
    from repro.core import tune_band_size
    from repro.matrix import BandTLRMatrix

    problem = st_3d_exp_problem(args.n, args.tile, seed=args.seed)
    # The table shows every sub-diagonal's true max rank: full band-1 grid.
    matrix = BandTLRMatrix.from_problem(
        problem, TruncationRule(eps=args.accuracy), band_size=1
    )
    decision = tune_band_size(
        matrix.rank_grid(), args.tile, fluctuation=args.fluctuation
    )
    rows = [
        (c.band_id, c.maxrank, round(c.dense_flops / 1e9, 2),
         round(c.tlr_flops / 1e9, 2))
        for c in decision.costs[: args.rows]
    ]
    print(format_table(
        ["band_id", "maxrank", "dense_Gflop", "tlr_Gflop"], rows,
        title=f"Algorithm 1 cost model (n={args.n}, b={args.tile}, "
              f"eps={args.accuracy:g})"))
    print(f"tuned BAND_SIZE = {decision.band_size} "
          f"(fluctuation={args.fluctuation}, box={decision.band_size_range})")
    return 0


def _run_tune_sweep(args: argparse.Namespace) -> int:
    """``tune --from-run``: the simulator-guided calibrate/sweep/verify loop."""
    from pathlib import Path

    from repro.analysis import format_table
    from repro.obs.analytics import render_prediction
    from repro.tune import parse_grid, sweep, verify_prediction
    from repro.utils.exceptions import ConfigurationError

    try:
        cal = _calibration(args.from_run)
        grid = parse_grid(args.grid) if args.grid else None
        result = sweep(
            cal,
            grid=grid,
            ntiles=args.target_nt,
            workers=args.workers,
            smoke=args.smoke,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = [
        (i + 1, c.candidate.band_size, c.candidate.scheduler,
         c.candidate.distribution, c.candidate.ranks, c.candidate.cores,
         round(c.makespan_s * 1e3, 3), round(c.critical_path_s * 1e3, 3),
         round(c.mean_occupancy, 3), round(c.bytes_sent / 2**20, 3),
         c.messages)
        for i, c in enumerate(result.candidates)
    ]
    print(format_table(
        ["#", "band", "sched", "dist", "ranks", "cores", "makespan_ms",
         "critpath_ms", "occupancy", "MiB_sent", "msgs"],
        rows,
        title=f"simulated sweep over {len(result.candidates)} candidates "
              f"({cal.task_overhead_s * 1e6:.0f} us/task overhead, "
              f"calibrated from {len(cal.sources)} run(s))",
    ))
    w = result.winner.candidate
    print(f"tuned BAND_SIZE = {w.band_size} via simulated makespan "
          f"(Algorithm 1: {result.algorithm1_band}, "
          f"window={result.fluctuation_window}); winner: "
          f"scheduler={w.scheduler}, dist={w.distribution}, "
          f"ranks={w.ranks}, cores={w.cores}")

    rc = 0
    if args.verify:
        report = verify_prediction(
            cal, result,
            tolerance=args.tolerance,
            obs_out=args.verify_obs,
        )
        result.verify = report.to_dict()
        print()
        print(render_prediction(report.accuracy))
        print(f"factor digest: {report.factor_digest}")
        if args.verify_obs:
            print(f"re-run the gate with: python -m repro compare "
                  f"{args.verify_obs}/predicted {args.verify_obs}/realized")
        if report.gate_passed:
            print(f"verify gate passed: |makespan err| "
                  f"{abs(report.accuracy.makespan_rel_err):.3f} <= "
                  f"{report.tolerance} and no kernel-class regression")
        else:
            print(f"FAIL: verify gate — makespan err "
                  f"{report.accuracy.makespan_rel_err:+.3f} vs tolerance "
                  f"{report.tolerance}, kernel-class regression="
                  f"{report.diff_regressed}", file=sys.stderr)
            rc = 1

    if args.emit:
        import json as _json

        out = Path(args.emit)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(_json.dumps(result.config(), indent=2) + "\n")
        print(f"winning config written to {out}")
        print(f"reproduce with: python -m repro execute --config {out}")
    if args.report:
        path = result.write(args.report)
        print(f"ranked tune report written to {path}")
    return rc


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis import (
        format_table,
        occupancy_summary,
        paper_rank_model,
    )
    from repro.core import tune_band_size
    from repro.obs import gantt
    from repro.distribution import default_distribution
    from repro.runtime import MachineSpec, build_cholesky_graph, simulate

    model = paper_rank_model(args.tile, accuracy=args.accuracy)
    band = tune_band_size(model.to_rank_grid(args.nt), args.tile).band_size
    g = build_cholesky_graph(
        args.nt, band, args.tile, model,
        recursive_split=args.split if args.split > 1 else None,
    )
    machine = MachineSpec(nodes=args.nodes, cores_per_node=args.cores)
    dist = default_distribution(g, args.nodes)
    res = simulate(
        g, dist, machine, scheduler=args.scheduler, collect_trace=args.gantt
    )
    s = occupancy_summary(res)
    print(format_table(
        ["metric", "value"],
        [
            ("tasks", g.n_tasks),
            ("tuned band", band),
            ("process grid (by per-panel work)",
             f"{dist.grid.p}x{dist.grid.q}"),
            ("makespan (s)", round(res.makespan, 3)),
            ("mean occupancy", round(s.mean_occupancy, 3)),
            ("imbalance", round(s.imbalance, 3)),
            ("achieved Gflop/s", round(res.achieved_gflops, 1)),
            ("messages", res.comm.messages),
            ("GiB sent", round(res.comm.bytes_sent / 2**30, 3)),
        ],
        title=f"simulated NT={args.nt}, b={args.tile} on {args.nodes}x{args.cores} cores",
    ))
    if args.gantt:
        print()
        print(gantt(res, width=args.width))
    return 0


def _cmd_execute(args: argparse.Namespace) -> int:
    rc = _apply_config(args) or _refuse_unread_flags(args)
    if rc:
        return rc
    return _observed(args, lambda: _run_execute(args))


#: ``execute`` flags that act on a factorization, which ``--executor sim``
#: never performs.
_FACTORIZING_FLAGS = (
    "verify", "faults", "checkpoint", "resume", "compare_sequential", "trace",
)


def _refuse_unread_flags(args: argparse.Namespace) -> int:
    """Exit 2, before any work, on a flag the chosen executor never reads."""
    if args.executor == "sim":
        given = [dest for dest in _FACTORIZING_FLAGS if getattr(args, dest)]
        why = "needs a factorized matrix; the sim executor only predicts the run"
    else:
        given = ["calibrate_from"] if args.calibrate_from is not None else []
        why = f"prices the sim executor; --executor {args.executor} never reads it"
    if not given:
        return 0
    print(f"error: --{given[0].replace('_', '-')} {why}", file=sys.stderr)
    return 2


def _run_execute(args: argparse.Namespace) -> int:
    import numpy as np

    from repro import TruncationRule, st_3d_exp_problem
    from repro.analysis import format_table, occupancy_summary
    from repro.core import tlr_cholesky
    from repro.distribution import default_distribution
    from repro.linalg import mixed_precision_report
    from repro.obs import gantt, write_chrome_trace
    from repro.matrix import BandTLRMatrix
    from repro.runtime import (
        execute_graph_distributed,
        execute_graph_parallel,
        graph_for_matrix,
    )

    problem = st_3d_exp_problem(args.n, args.tile, seed=args.seed)
    rule = TruncationRule(eps=args.accuracy)
    matrix = BandTLRMatrix.from_problem(
        problem,
        rule,
        band_size=args.band,
        n_workers=args.workers,
    )
    graph = graph_for_matrix(matrix)

    if args.executor == "sim":
        return _execute_sim(args, graph)

    t_seq = None
    if args.compare_sequential:
        seq = matrix.copy()
        t0 = time.perf_counter()
        tlr_cholesky(seq)
        t_seq = time.perf_counter() - t0

    run = dict(
        collect_trace=args.gantt or args.trace is not None,
        faults=_fault_plan(args),
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    if args.executor == "processes":
        res = execute_graph_distributed(
            graph, matrix, n_ranks=args.ranks, **run
        )
    else:
        res = execute_graph_parallel(
            graph, matrix, n_workers=args.workers, scheduler=args.scheduler,
            **run,
        )
    s = occupancy_summary(res)
    rows = [
        ("tasks", res.tasks_executed),
        ("workers", res.n_workers),
        ("wall-clock (s)", round(res.makespan, 3)),
        ("busy core-s", round(float(res.busy.sum()), 3)),
        ("mean occupancy", round(s.mean_occupancy, 3)),
        ("modelled Gflop", round(res.counter.total / 1e9, 2)),
        ("max rank seen", res.max_rank_seen),
        ("pool hit rate", round(res.pool.stats.hit_rate, 3)),
        ("precision", _fp32_tiles(mixed_precision_report(matrix))),
    ]
    if args.executor == "processes":
        c = res.comm
        grid = default_distribution(graph, res.n_workers).grid
        rows += [
            ("launch / run / gather (s)", " / ".join(
                f"{part:.3f}"
                for part in (res.launch_s, res.run_s, res.gather_s)
            )),
            ("process grid (by per-panel work)", f"{grid.p}x{grid.q}"),
            ("LOCAL edges", c.local_edges),
            ("REMOTE edges", c.remote_edges),
            ("messages (modelled)", c.messages),
            ("MiB sent (modelled)", round(c.bytes_sent / 2**20, 3)),
            ("broadcasts", c.broadcasts),
            ("wire messages", res.wire_messages),
            ("MiB on wire", round(res.wire_bytes / 2**20, 3)),
        ]
        if res.rank_restarts:
            rows.append(("rank restarts", res.rank_restarts))
    if res.resilience is not None:
        rows.append(("task retries", res.resilience.retries))
        rows.append(("tasks recovered", res.resilience.recoveries))
        if res.resilience.checkpoints_written:
            rows.append(("checkpoints written",
                         res.resilience.checkpoints_written))
        if res.tasks_resumed:
            rows.append(("tasks resumed", res.tasks_resumed))
    if t_seq is not None:
        rows.append(("one worker (s)", round(t_seq, 3)))
        rows.append(("speedup", round(t_seq / max(res.makespan, 1e-12), 2)))
    print(format_table(
        ["metric", "value"], rows,
        title=f"real execution [{args.executor}]: "
              f"n={args.n}, b={args.tile}, band={args.band}",
    ))
    if getattr(args, "config", None):
        from repro.tune import factor_digest

        print(f"factor digest: {factor_digest(matrix)}")
    if args.verify:
        l = matrix.to_dense(lower_only=True)
        a = problem.dense()
        err = float(np.linalg.norm(l @ l.T - a) / np.linalg.norm(a))
        print(f"backward error |LL^T - A|/|A|: {err:.2e}")
    if args.gantt:
        print()
        print(gantt(res, width=args.width))
    if args.trace is not None:
        out = write_chrome_trace(res, args.trace)
        print(f"Chrome trace written to {out}")
    return 0


def _execute_sim(args: argparse.Namespace, graph) -> int:
    """``execute --executor sim``: predict the run instead of doing it.

    Simulates the same DAG on one single-core node per rank and replays
    the predicted schedule into the active observation, so the ``--obs``
    directory holds the same artifact shapes as a real run — feed both to
    ``python -m repro compare`` for the predicted-vs-realized trace diff.
    With ``--calibrate-from REALDIR`` the simulator is priced by the
    same :class:`~repro.tune.Calibration` ``tune`` uses: per-class mean
    task durations and the per-task runtime overhead of the real run.
    """
    from repro import obs
    from repro.analysis import format_table
    from repro.distribution import default_distribution
    from repro.obs import gantt
    from repro.runtime import MachineSpec, simulate
    from repro.tune.verify import predicted_run, record_run
    from repro.utils.exceptions import ConfigurationError

    machine = MachineSpec(nodes=args.ranks, cores_per_node=1)
    if args.calibrate_from is not None:
        try:
            cal = _calibration([args.calibrate_from])
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        machine = MachineSpec(
            nodes=args.ranks, cores_per_node=1, rates=cal.rates,
            task_overhead_s=cal.task_overhead_s,
        )
    dist = default_distribution(graph, args.ranks)
    res = simulate(
        graph, dist, machine, collect_trace=True, scheduler=args.scheduler
    )

    # Replay the predicted schedule as spans so --obs yields a trace the
    # analytics layer (and `repro compare`) reads like a realized one.
    if obs.enabled():
        record_run(predicted_run(graph, res), obs.active(), t0=obs.clock())
        obs.gauge_set("makespan_s", res.makespan, executor="sim")
        obs.gauge_set("remote_messages", res.comm.messages)
        obs.gauge_set("remote_bytes", res.comm.bytes_sent)

    print(format_table(
        ["metric", "value"],
        [
            ("tasks", graph.n_tasks),
            ("ranks", args.ranks),
            ("process grid (by per-panel work)",
             f"{dist.grid.p}x{dist.grid.q}"),
            ("predicted makespan (s)", round(res.makespan, 3)),
            ("mean occupancy", round(float(res.occupancy.mean()), 3)),
            ("LOCAL edges", res.comm.local_edges),
            ("REMOTE edges", res.comm.remote_edges),
            ("messages", res.comm.messages),
            ("MiB sent", round(res.comm.bytes_sent / 2**20, 3)),
            ("broadcasts", res.comm.broadcasts),
            ("kernel rates", "measured" if args.calibrate_from is not None
             else "Shaheen-II-like"),
            ("task overhead (us)", round(machine.task_overhead_s * 1e6, 1)),
        ],
        title=f"predicted execution [sim]: n={args.n}, b={args.tile}, "
              f"band={args.band}, ranks={args.ranks}",
    ))
    if args.gantt:
        print()
        print(gantt(res, width=args.width))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import load_summary, render_report

    summary = load_summary(args.path)
    print(render_report(summary, width=args.width))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.obs.analytics import load_run, render_analysis

    run = load_run(args.path)
    print(render_analysis(run, width=args.width, buckets=args.buckets))
    return 0


def _load_runs(paths) -> list:
    """Load ``--obs`` run directories; a path that is not one raises
    :class:`ConfigurationError` (every caller exits 2 on it)."""
    from pathlib import Path

    from repro.obs.analytics import load_run
    from repro.utils.exceptions import ConfigurationError

    for path in paths:
        if not (Path(path) / "events.jsonl").exists():
            raise ConfigurationError(
                f"{path} is not an --obs run directory (no events.jsonl)"
            )
    return [load_run(path) for path in paths]


def _calibration(paths):
    """The one calibration ``tune`` and ``execute --executor sim`` read."""
    from repro.tune import Calibration

    return Calibration.from_runs(_load_runs(paths), sources=tuple(paths))


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.obs.analytics import render_diff, trace_diff
    from repro.utils.exceptions import ConfigurationError

    try:
        base, head = _load_runs((args.base, args.head))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = trace_diff(base, head, threshold=args.threshold)
    print(render_diff(diff))
    return 1 if diff.has_regression else 0


def _band_arg(value: str):
    """``--band`` values for the service commands: ``auto`` or an int."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"band must be 'auto' or an integer, got {value!r}"
        ) from None


def _cmd_serve(args: argparse.Namespace) -> int:
    return _observed(args, lambda: _run_serve(args))


def _parse_listen(spec: str) -> tuple[str, int]:
    """``--listen`` values: ``HOST:PORT`` or a bare ``PORT`` (port 0 = OS
    picks a free one)."""
    host, _, port = spec.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        number = int(port)
    except ValueError:
        number = -1
    if not 0 <= number <= 65535:
        raise argparse.ArgumentTypeError(
            "listen address must be HOST:PORT or PORT with PORT in "
            f"0-65535, got {spec!r}"
        )
    return host, number


def _run_serve(args: argparse.Namespace) -> int:
    from repro import st_3d_exp_problem
    from repro.analysis import format_table
    from repro.obs import LiveAggregator, MonitoringServer, parse_slo
    from repro.service import ServiceConfig, SolverService, run_load

    live = None
    monitor = None
    if args.listen is not None or args.slo is not None:
        try:
            slo = parse_slo(args.slo) if args.slo is not None else None
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        live = LiveAggregator(slo=slo)

    try:
        if live is not None:
            live.start()
        if args.listen is not None:
            host, port = args.listen
            try:
                monitor = MonitoringServer(live, host=host, port=port)
            except OSError as exc:
                print(f"error: cannot listen on {host}:{port}: {exc}",
                      file=sys.stderr)
                return 2
            monitor.start()
            print(f"monitoring plane on {monitor.url} "
                  f"(/metrics /healthz /stats)")
        problem = st_3d_exp_problem(args.n, args.tile, seed=args.seed)
        config = ServiceConfig(
            n_workers=args.service_workers,
            max_queue_depth=args.max_queue,
            max_batch=args.max_batch,
            cache_bytes=(
                None if args.cache_mb is None else args.cache_mb * 2**20
            ),
            warm_dir=args.warm_dir,
            default_deadline_s=(
                None if args.deadline_ms is None else args.deadline_ms / 1e3
            ),
        )
        print(f"serving st-3D-exp n={args.n}, b={args.tile} at "
              f"eps={args.accuracy:g}: "
              f"{config.n_workers} workers, "
              f"queue<={config.max_queue_depth}, batch<={config.max_batch}")
        with SolverService(config, live=live) as svc:
            session = svc.session(
                problem,
                accuracy=args.accuracy,
                band_size=args.band,
            )
            t0 = time.perf_counter()
            entry = session.warm()
            print(f"factor resident in {time.perf_counter() - t0:.2f}s "
                  f"({entry.nbytes / 2**20:.1f} MiB, key "
                  f"{session.key.digest()}, "
                  f"{_fp32_tiles(entry.report.precision_report)})")
            report = run_load(
                session,
                clients=args.clients,
                requests_per_client=args.requests,
                seed=args.seed,
            )
            stats = svc.stats()
            if args.linger > 0 and monitor is not None:
                print(f"lingering {args.linger:g}s for live scrapes "
                      f"({monitor.url})")
                time.sleep(args.linger)
    finally:
        if monitor is not None:
            monitor.stop()
        if live is not None:
            live.stop()
    cache = stats.cache
    print(format_table(
        ["metric", "value"],
        [
            ("clients x requests", f"{args.clients} x {args.requests}"),
            ("completed", report.completed),
            ("rejected (backpressure)", report.rejected),
            ("dropped (deadline)", report.dropped),
            ("failed", report.failed),
            ("throughput (req/s)", round(report.throughput_rps, 1)),
            ("p50 latency (ms)", round(report.p50_ms, 3)),
            ("p95 latency (ms)", round(report.p95_ms, 3)),
            ("p99 latency (ms)", round(report.p99_ms, 3)),
            ("mean batch width", round(report.mean_batch_width, 2)),
            ("max batch width", report.max_batch_width),
            ("cache hits / misses", f"{cache.hits} / {cache.misses}"),
            ("factorizations", cache.factorizations),
            ("warm starts", cache.warm_starts),
            ("resident factors (MiB)",
             round(cache.resident_bytes / 2**20, 1)),
        ],
        title=f"solver service: {report.completed} solves, "
              f"{stats.batches} batches",
    ))
    if live is not None:
        health = live.health()
        print(f"final health: {health['status']}"
              + (f" ({health['note']})" if "note" in health else ""))
        if health["status"] == "failing":
            return 1
    return 0


def _cmd_bench_service(args: argparse.Namespace) -> int:
    from repro import st_3d_exp_problem
    from repro.analysis import format_table
    from repro.service import ServiceConfig, SolverService, run_load

    n = 512 if args.smoke else args.n
    tile = 64 if args.smoke else args.tile
    requests = min(args.requests, 5) if args.smoke else args.requests
    problem = st_3d_exp_problem(n, tile, seed=args.seed)

    def arm(max_batch: int):
        config = ServiceConfig(
            n_workers=1,                      # both arms serialize on one
            max_queue_depth=max(64, 2 * args.clients),  # worker: the delta
            max_batch=max_batch,              # is batching, nothing else
        )
        with SolverService(config) as svc:
            session = svc.session(
                problem, accuracy=args.accuracy, band_size=args.band,
            )
            return run_load(
                session,
                clients=args.clients,
                requests_per_client=requests,
                seed=args.seed,
            )

    print(f"bench-service: n={n}, b={tile}, eps={args.accuracy:g}, "
          f"{args.clients} closed-loop clients x {requests} requests")
    solo = arm(1)
    batched = arm(args.max_batch)
    ratio = solo.p50_ms / batched.p50_ms if batched.p50_ms > 0 else 0.0

    print(format_table(
        ["arm", "p50 ms", "p95 ms", "p99 ms", "req/s", "mean width"],
        [
            ("one-at-a-time", round(solo.p50_ms, 3), round(solo.p95_ms, 3),
             round(solo.p99_ms, 3), round(solo.throughput_rps, 1), 1.0),
            ("batched", round(batched.p50_ms, 3), round(batched.p95_ms, 3),
             round(batched.p99_ms, 3), round(batched.throughput_rps, 1),
             round(batched.mean_batch_width, 2)),
        ],
        title=f"serving latency at {args.clients} clients "
              f"(p50 ratio {ratio:.2f}x)",
    ))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs import run_top

    return run_top(
        args.url,
        interval=args.interval,
        iterations=args.iterations,
        once=args.once,
    )


def _add_resilience_args(sp: argparse.ArgumentParser) -> None:
    """Fault-injection and checkpoint flags shared by demo/execute."""
    sp.add_argument("--faults", type=str, default=None, metavar="SPEC",
                    help="inject faults: comma-separated kind:kernel:rate"
                         "[:param] clauses, e.g. 'transient:gemm:0.05,"
                         "nan:*:0.01' (kinds: transient, nan, oom, stall)")
    sp.add_argument("--fault-seed", type=int, default=0,
                    help="seed of the deterministic fault draws")
    sp.add_argument("--checkpoint", type=str, default=None, metavar="DIR",
                    help="write panel-frontier checkpoints into DIR during "
                         "the factorization")
    sp.add_argument("--resume", action="store_true",
                    help="restore the latest checkpoint from --checkpoint "
                         "DIR and skip completed tasks")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="BAND-DENSE-TLR Cholesky with a rank-aware task runtime",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and subsystem inventory")

    d = sub.add_parser("demo", help="end-to-end compress/tune/factorize/solve")
    d.add_argument("--n", type=int, default=2048)
    d.add_argument("--tile", type=int, default=128)
    d.add_argument("--accuracy", type=float, default=1e-8)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--workers", type=int, default=None,
                   help="factorize on the execution core with N workers "
                        "(default: cores / BLAS threads); also "
                        "parallelizes matrix assembly")
    d.add_argument("--obs", type=str, default=None, metavar="DIR",
                   help="record spans + metrics and write trace/summary/"
                        "Prometheus artifacts into DIR")
    d.add_argument("--config", type=str, default=None, metavar="PATH",
                   help="overlay a 'tune --emit' config.json (matching "
                        "keys override the flags)")
    _add_resilience_args(d)

    t = sub.add_parser(
        "tune",
        help="BAND_SIZE auto-tuner: Algorithm 1's cost table (the Fig. 6c "
             "view: it wants every sub-diagonal's true max rank, so it "
             "assembles at band 1 — unlike band 'auto' builds, which tune "
             "during assembly and skip the band's compressions), or — "
             "with --from-run — the simulator-guided "
             "calibrate/sweep/verify loop over band, scheduler, "
             "distribution and rank/core counts",
    )
    t.add_argument("--n", type=int, default=4050)
    t.add_argument("--tile", type=int, default=270)
    t.add_argument("--accuracy", type=float, default=1e-4)
    t.add_argument("--fluctuation", type=float, default=0.67)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--rows", type=int, default=10)
    t.add_argument("--from-run", action="append", default=None,
                   metavar="DIR", dest="from_run",
                   help="calibrate rank grid + kernel rates from a "
                        "recorded --obs run directory (repeatable; runs "
                        "of one geometry pool)")
    t.add_argument("--grid", type=str, default=None, metavar="SPEC",
                   help="candidate axes, e.g. 'band=1,2,3;scheduler="
                        "priority,fifo;dist=band,2d;ranks=1,2;cores=2,4' "
                        "(omitted axes keep defaults: fluctuation-window "
                        "bands, all schedulers, band distribution, 1 "
                        "rank, recorded worker count)")
    t.add_argument("--target-nt", type=int, default=None, metavar="NT",
                   help="sweep a different tile count than recorded "
                        "(the rank model extrapolates; a task costs its "
                        "class's recorded mean duration, as at the "
                        "recorded count)")
    t.add_argument("--verify", action="store_true",
                   help="execute the winning config for real and gate "
                        "predicted-vs-realized makespan through the "
                        "--tolerance plus the dual relative+IQR "
                        "kernel-class rule (exit 1 on failure)")
    t.add_argument("--tolerance", type=float, default=0.5,
                   help="relative makespan error the verify gate "
                        "accepts (see docs/tuning.md for methodology)")
    t.add_argument("--smoke", action="store_true",
                   help="trim the grid for CI runners (<=3 bands, "
                        "priority+fifo schedulers)")
    t.add_argument("--workers", type=int, default=None,
                   help="threads evaluating sweep candidates in "
                        "parallel (default: min(candidates, 8))")
    t.add_argument("--emit", type=str, default=None, metavar="PATH",
                   help="write the winning config as JSON consumable "
                        "by 'execute --config PATH'")
    t.add_argument("--report", type=str, default=None, metavar="PATH",
                   help="write the full ranked TuneResult as JSON")
    t.add_argument("--verify-obs", type=str, default=None, metavar="DIR",
                   help="with --verify: write predicted/ and realized/ "
                        "--obs artifact directories under DIR for "
                        "standalone 'repro compare'")

    s = sub.add_parser("simulate", help="replay a Cholesky DAG on the simulator")
    s.add_argument("--nt", type=int, default=48)
    s.add_argument("--tile", type=int, default=1200)
    s.add_argument("--accuracy", type=float, default=1e-8)
    s.add_argument("--nodes", type=int, default=16)
    s.add_argument("--cores", type=int, default=31)
    s.add_argument("--split", type=int, default=4)
    s.add_argument("--scheduler", choices=["priority", "fifo", "lifo"],
                   default="priority")
    s.add_argument("--gantt", action="store_true", help="print a text Gantt")
    s.add_argument("--width", type=int, default=100)

    e = sub.add_parser(
        "execute",
        help="run the Cholesky DAG for real on the execution core",
    )
    e.add_argument("--n", type=int, default=2048)
    e.add_argument("--tile", type=int, default=128)
    e.add_argument("--band", type=int, default=2)
    e.add_argument("--accuracy", type=float, default=1e-8)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--workers", type=int, default=None,
                   help="worker threads (default: cores / BLAS "
                        "threads); with "
                        "--executor processes this only parallelizes "
                        "matrix assembly")
    e.add_argument("--executor", choices=["threads", "processes", "sim"],
                   default="threads",
                   help="backend: shared-memory worker threads, true "
                        "multi-process ranks with explicit tile "
                        "communication, or the discrete-event simulator "
                        "(predicts without factorizing)")
    e.add_argument("--ranks", type=int, default=2,
                   help="rank count for --executor processes/sim "
                        "(tiles placed by the hybrid band distribution)")
    e.add_argument("--calibrate-from", type=str, default=None,
                   metavar="DIR",
                   help="with --executor sim: price the simulator by "
                        "the per-class mean task durations and per-task "
                        "overhead of a real run's --obs directory (the "
                        "calibration tune --from-run uses)")
    e.add_argument("--scheduler", choices=["priority", "fifo", "lifo"],
                   default="priority")
    e.add_argument("--compare-sequential", action="store_true",
                   help="also time the factorization at one worker and "
                        "report speedup")
    e.add_argument("--verify", action="store_true",
                   help="check the backward error against the dense matrix")
    e.add_argument("--gantt", action="store_true", help="print a text Gantt")
    e.add_argument("--width", type=int, default=100)
    e.add_argument("--trace", type=str, default=None, metavar="PATH",
                   help="write a Chrome-tracing JSON of the real run")
    e.add_argument("--obs", type=str, default=None, metavar="DIR",
                   help="record spans + metrics and write trace/summary/"
                        "Prometheus artifacts into DIR")
    e.add_argument("--config", type=str, default=None, metavar="PATH",
                   help="overlay a 'tune --emit' config.json (matching "
                        "keys override the flags) and print the factor "
                        "digest for bitwise-reproduction checks")
    _add_resilience_args(e)

    r = sub.add_parser(
        "report",
        help="render the telemetry of a --obs run as a text report",
    )
    r.add_argument("path", help="--obs directory (or a summary.json inside one)")
    r.add_argument("--width", type=int, default=80,
                   help="report width in characters")

    a = sub.add_parser(
        "analyze",
        help="trace analytics on a --obs run: critical path, occupancy, "
             "per-kernel flop rates",
    )
    a.add_argument("path", help="--obs directory (or a file inside one)")
    a.add_argument("--width", type=int, default=80,
                   help="report width in characters")
    a.add_argument("--buckets", type=int, default=60,
                   help="time buckets of the occupancy timeline")

    c = sub.add_parser(
        "compare",
        help="noise-aware structural diff of two --obs trace "
             "directories (exit 1 on regression, 2 on anything else)",
    )
    c.add_argument("base", help="baseline --obs run directory")
    c.add_argument("head", help="candidate --obs run directory")
    c.add_argument("--threshold", type=float, default=0.25,
                   help="relative slowdown that may gate; a delta must "
                        "also exceed the measured IQR to count")

    v = sub.add_parser(
        "serve",
        help="run the factorize-once/solve-many solver service against "
             "closed-loop traffic and print the serving report",
    )
    v.add_argument("--n", type=int, default=1024)
    v.add_argument("--tile", type=int, default=64)
    v.add_argument("--accuracy", type=float, default=1e-6)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--band", type=_band_arg, default="auto",
                   help="dense band width: 'auto' (Algorithm 1) or an int")
    v.add_argument("--service-workers", type=int, default=2,
                   help="solver worker threads (= factor shards)")
    v.add_argument("--max-queue", type=int, default=64,
                   help="bounded pending depth; submissions beyond it "
                        "are rejected (explicit backpressure)")
    v.add_argument("--max-batch", type=int, default=16,
                   help="most same-factor requests stacked into one "
                        "multi-RHS solve (1 disables batching)")
    v.add_argument("--cache-mb", type=int, default=None, metavar="MB",
                   help="factor-cache LRU budget in MiB "
                        "(default: unbounded)")
    v.add_argument("--warm-dir", type=str, default=None, metavar="DIR",
                   help="checkpoint warm-start tier: factors checkpoint "
                        "into DIR and later cache misses resume from "
                        "the completed panel frontier")
    v.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                   help="per-request deadline budget; requests still "
                        "queued when it lapses are dropped")
    v.add_argument("--clients", type=int, default=4,
                   help="closed-loop client threads")
    v.add_argument("--requests", type=int, default=8,
                   help="solve requests per client")
    v.add_argument("--obs", type=str, default=None, metavar="DIR",
                   help="record spans + metrics and write trace/summary/"
                        "Prometheus artifacts into DIR")
    v.add_argument("--listen", type=_parse_listen, default=None,
                   metavar="HOST:PORT",
                   help="expose the live monitoring plane over HTTP: "
                        "/metrics (Prometheus exposition), /healthz "
                        "(SLO state), /stats (JSON); port 0 picks a "
                        "free port")
    v.add_argument("--slo", type=str, default=None, metavar="SPEC",
                   help="serving objective evaluated over the rolling "
                        "window, e.g. 'error-rate=0.01,p99-ms=50,"
                        "window=60'; /healthz returns 503 (and the "
                        "command exits 1) when it burns at >2x budget")
    v.add_argument("--linger", type=float, default=0.0, metavar="SECONDS",
                   help="keep the monitoring endpoints up SECONDS after "
                        "the load completes (CI scrapes, repro top)")

    tp = sub.add_parser(
        "top",
        help="live terminal dashboard for a running 'serve --listen' "
             "monitoring plane",
    )
    tp.add_argument("url", help="monitoring base URL, e.g. "
                                "http://127.0.0.1:9100")
    tp.add_argument("--interval", type=float, default=1.0,
                    help="seconds between refreshes")
    tp.add_argument("--iterations", type=int, default=None, metavar="N",
                    help="stop after N refreshes (default: until ^C)")
    tp.add_argument("--once", action="store_true",
                    help="render a single snapshot and exit")

    bs = sub.add_parser(
        "bench-service",
        help="batched vs one-at-a-time serving load tool; prints "
             "p50/p95/p99 of both arms",
    )
    bs.add_argument("--n", type=int, default=2048)
    bs.add_argument("--tile", type=int, default=128)
    bs.add_argument("--accuracy", type=float, default=1e-4)
    bs.add_argument("--seed", type=int, default=0)
    bs.add_argument("--band", type=_band_arg, default=1,
                    help="dense band width: 'auto' (Algorithm 1) or an int")
    bs.add_argument("--clients", type=int, default=8,
                    help="closed-loop client threads")
    bs.add_argument("--requests", type=int, default=10,
                    help="solve requests per client per arm")
    bs.add_argument("--max-batch", type=int, default=16,
                    help="batch width of the batched arm")
    bs.add_argument("--smoke", action="store_true",
                    help="small sizes for CI runners")
    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "demo": _cmd_demo,
        "tune": _cmd_tune,
        "simulate": _cmd_simulate,
        "execute": _cmd_execute,
        "report": _cmd_report,
        "analyze": _cmd_analyze,
        "compare": _cmd_compare,
        "serve": _cmd_serve,
        "top": _cmd_top,
        "bench-service": _cmd_bench_service,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (``repro analyze DIR | head``): stop
        # quietly, with stdout on /dev/null so the exit-time flush of
        # what is still buffered cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
