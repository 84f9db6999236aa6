#!/usr/bin/env python3
"""Alternating parent/change pairs of one end-to-end benchmark workload.

    python tools/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT WORKLOAD

runs ``--pairs`` (ten) pairs of ``benchmarks/e2e/run.py --workload W
--trace 0``, each checkout's own copy, both sides of a pair on one seed
and the side that goes first alternating.  For every end-to-end metric
it prints each side's median and quartiles, the change's wins and ties,
and the verdict of :func:`judge` against the metric's ``bound`` in
``BENCHMARK.json``.  The result is appended to ``BENCH_e2e.json`` in the
current directory (``--out``), the repository's end-to-end trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object ``run.py`` prints last."""
    cmd = [
        sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def commit_of(checkout: Path) -> str:
    cmd = ["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def judge(parent, change, better, bound, failed_parent=0, failed_change=0):
    """One metric's record entry from both sides' per-pair values.

    Its ``verdict`` is the rule of the ``choosing-metrics`` (6-8) and
    ``simplicity-review`` guides.  ``gain``: the change wins at least
    nine tenths of the pairs (a tie counts for neither side), the medians
    differ by more than the distance between the parent's own quartiles,
    and no more operations fail.  ``regressed``: the change's median is
    worse than the parent's by more than ``bound`` (a fraction of it).
    ``unresolved``: the parent's runs spread wider than that bound, unless
    every run of the change beats every run of the parent.  Otherwise
    ``no-regression``.
    """
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    spread = p["q3"] - p["q1"]
    beyond = abs(c["median"] - p["median"]) > spread
    allowed = bound * abs(p["median"])
    if wins >= 0.9 * len(parent) and beyond and failed_change <= failed_parent:
        verdict = "gain"
    elif sign * (p["median"] - c["median"]) > allowed:
        verdict = "regressed"
    elif spread > allowed and not (
        min(sign * v for v in change) > max(sign * v for v in parent)
    ):
        verdict = "unresolved"
    else:
        verdict = "no-regression"
    return {
        "parent": p, "change": c, "wins": wins, "ties": ties,
        "gap_exceeds_parent_iqr": beyond, "verdict": verdict,
        "change_over_parent": c["median"] / p["median"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=100, help="seed of pair 0")
    ap.add_argument("--out", type=Path, default=Path("BENCH_e2e.json"))
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("quartiles need at least two pairs")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    contract = json.loads((sides["change"] / "BENCHMARK.json").read_text())

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(
                sides[side], args.workload, args.seed + pair, args.seconds
            )
            runs[side].append(result)
            print(f"pair {pair} {side:<6} " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ), flush=True)

    record = {
        "workload": args.workload, "pairs": args.pairs,
        "seconds": args.seconds, "first_seed": args.seed,
        "commits": {side: commit_of(path) for side, path in sides.items()},
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
        "metrics": {},
    }
    print(f"\n{args.workload}: {args.pairs} pairs, failed {record['failed']}")
    for metric in contract["end_to_end"]:
        name = metric["name"]
        values = {
            side: [r["metrics"][name]["value"] for r in runs[side]]
            for side in runs
        }
        entry = record["metrics"][name] = judge(
            values["parent"], values["change"],
            metric["better"], metric["bound"],
            record["failed"]["parent"], record["failed"]["change"],
        )
        p, c = entry["parent"], entry["change"]
        print(
            f"  {name:<12} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
            f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
            f"  x{entry['change_over_parent']:.3f}"
            f"  wins {entry['wins']}/{args.pairs} ties {entry['ties']}"
            f"  beyond parent IQR: {entry['gap_exceeds_parent_iqr']}"
            f"  verdict: {entry['verdict']}"
        )

    history = json.loads(args.out.read_text()) if args.out.exists() else []
    history.append(record)
    args.out.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
