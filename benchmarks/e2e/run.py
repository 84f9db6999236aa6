#!/usr/bin/env python3
"""Single-command driver of the end-to-end benchmark (see README.md here).

``run.py --workload NAME --seed S --seconds T --trace 0|1`` runs one
workload in this process and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of an untraced pass (``--trace 0``) or the per-layer metrics of a traced
pass (``--trace 1``).  Without ``--workload`` every workload of
``BENCHMARK.json`` runs, each in a fresh subprocess, strictly one after
another; ``--aa`` runs the untraced set twice and compares the two.

BLAS is pinned to one thread through the environment before numpy is
imported, and the pin is verified, not assumed.  Exit codes: 0 done,
1 wrong outputs or an A/A gap beyond its bound, 2 the environment cannot
run the benchmark (no ``src/repro``, too few cores, pin not effective).
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # set-up time is counted from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
#: process_time / perf_counter of a single-threaded matmul stays below this
PIN_RATIO_MAX = 1.15


def unusable(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """HEAD's commit from the files of ``.git``; the driver's checkout has none."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def pin_ratio(np) -> float:
    """CPU seconds per wall second of a 1500^2 matmul: 1 when BLAS is pinned."""
    a = np.random.default_rng(0).standard_normal((1500, 1500))
    cpu, wall = time.process_time(), time.perf_counter()
    a @ a
    return (time.process_time() - cpu) / (time.perf_counter() - wall)


def show(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_one(args) -> int:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        unusable(f"unknown workload {args.workload!r}")
    cls, spec = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    if cls.workers * BLAS_THREADS > nproc:
        unusable(
            f"{args.workload} keeps {cls.workers} workers x {BLAS_THREADS} BLAS "
            f"thread busy; this host offers {nproc} core(s)"
        )
    ratio = pin_ratio(np)
    if ratio > PIN_RATIO_MAX:
        unusable(f"BLAS pin not effective: matmul used {ratio:.2f} cores")
    env = {
        "nproc": nproc,
        "blas": np.__config__.show(mode="dicts")["Build Dependencies"]["blas"]["name"],
        **{var: os.environ[var] for var in BLAS_VARS},
        "pin_cpu_per_wall": ratio,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": args.seed,
    }

    workload = cls(spec, args.seed, args.toy)
    try:
        setup_s = time.perf_counter() - PROCESS_START
        if args.trace:
            from spans import Tracer, repro_targets

            tracer = Tracer()
            attempted, extra = workload.traced(tracer, repro_targets())
            workload.check()
            metrics = workloads.per_layer(tracer, workload, attempted, extra)
            if metrics["trace.coverage"][0] < 0.95:
                # a wrapped entry point was routed around: the layers lie
                workload.failed += 1
            detail = {"setup_s": setup_s}
        else:
            samples = workload.run(args.seconds)
            rss_mb = workloads.peak_rss_mb()
            workload.check()
            attempted = len(samples)
            metrics = workloads.end_to_end(workload, setup_s, samples, rss_mb)
            detail = {"samples_s": samples}
    finally:
        workload.close()

    failed = min(workload.failed, attempted)
    print(f"{args.workload} (trace {args.trace}, seed {args.seed})")
    show(metrics)
    if not args.trace:
        print(
            f"  {attempted} operations, fastest {min(samples) * 1e3:.6g} ms, "
            f"median {np.median(samples) * 1e3:.6g} ms, "
            f"p99 {np.percentile(samples, 99) * 1e3:.6g} ms, "
            f"slowest {max(samples) * 1e3:.6g} ms, "
            f"failed_share {failed / attempted:.6g}"
        )
    print("  env " + json.dumps(env))
    result = {
        "correct": workload.failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-trace{args.trace}"
        (out / f"{stem}.json").write_text(
            json.dumps({**result, "env": env, **detail}, indent=1)
        )
        if args.trace:
            tracer.dump(out / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Every workload, each in its own subprocess, one at a time
# ----------------------------------------------------------------------
def run_set(args, contract: dict, trace: int) -> dict:
    """``{workload: result}`` of one pass over every workload."""
    results = {}
    for entry in contract["workloads"]:
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", entry["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(trace),
        ]
        if args.toy:
            command.append("--toy")
        if args.out:
            command += ["--out", args.out]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise SystemExit(done.returncode)
        *report, last = done.stdout.rstrip("\n").split("\n")
        print("\n".join(report), flush=True)
        results[entry["name"]] = json.loads(last)
    return results


def compare_sets(first: dict, second: dict, contract: dict) -> bool:
    """Print both runs of every end-to-end metric; False if a gap breaks a bound."""
    agree = True
    print(f"{'workload':<16} {'metric':<13} {'first':>12} {'second':>12} "
          f"{'gap':>8} {'bound':>6}")
    for workload in first:
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = first[workload]["metrics"][name]["value"]
            b = second[workload]["metrics"][name]["value"]
            # how much worse the second run reads, as a share of the first
            gap = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "" if abs(gap) <= metric["bound"] else "  EXCEEDS"
            agree = agree and not verdict
            print(f"{workload:<16} {name:<13} {a:>12.6g} {b:>12.6g} "
                  f"{gap:>+8.2%} {metric['bound']:>6.0%}{verdict}")
    return agree


def run_all(args) -> int:
    contract = load_contract()
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    if args.aa:
        first = run_set(args, contract, 0)
        second = run_set(args, contract, 0)
        sets = [first, second]
        agree = compare_sets(first, second, contract)
    else:
        passes = (0, 1) if args.trace is None else (args.trace,)
        sets = [run_set(args, contract, trace) for trace in passes]
        agree = True
    correct = all(r["correct"] for results in sets for r in results.values())
    print(f"outputs {'correct' if correct else 'WRONG'}"
          + ("" if agree else "; A/A gap beyond its bound"))
    return 0 if correct and agree else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1: the traced pass and its per-layer metrics")
    parser.add_argument("--aa", action="store_true",
                        help="run the untraced set twice and compare")
    parser.add_argument("--toy", action="store_true",
                        help="NT=4 and 50 requests: the smoke test's size")
    parser.add_argument("--out", help="directory for results and spans")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        unusable(f"no src/repro under {ROOT}: nothing to measure")
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = load_contract()["run_seconds"]
    args.trace = args.trace or 0
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
