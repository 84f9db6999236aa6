#!/usr/bin/env python3
"""Alternating parent/change pairs of one end-to-end benchmark workload.

    python tools/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT WORKLOAD

runs ``--pairs`` (ten) pairs of ``benchmarks/e2e/run.py --workload W
--trace 0``, each checkout's own copy, both sides of a pair on one seed
and the side that goes first alternating.  For every end-to-end metric
it prints each side's median and quartiles, the change's wins and ties,
and the verdict of the ``choosing-metrics`` guide (section 8): a gain
counts only when the change wins at least nine tenths of the pairs and
the medians differ by more than the distance between the parent's own
quartiles.  The result is appended to ``BENCH_e2e.json`` in the current
directory (``--out``), the repository's end-to-end trajectory.
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
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}

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
    for name, direction in better.items():
        sign = -1.0 if direction == "lower" else 1.0
        parent, change = (
            [r["metrics"][name]["value"] for r in runs[side]]
            for side in ("parent", "change")
        )
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        p, c = quartiles(parent), quartiles(change)
        beyond = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
        gain = wins >= 0.9 * args.pairs and beyond and (
            record["failed"]["change"] <= record["failed"]["parent"]
        )
        record["metrics"][name] = {
            "parent": p, "change": c, "wins": wins, "ties": ties,
            "gap_exceeds_parent_iqr": beyond, "gain_by_the_rule": gain,
            "change_over_parent": c["median"] / p["median"],
        }
        print(
            f"  {name:<12} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
            f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
            f"  x{c['median'] / p['median']:.3f}  wins {wins}/{args.pairs}"
            f" ties {ties}  beyond parent IQR: {beyond}  gain: {gain}"
        )

    history = json.loads(args.out.read_text()) if args.out.exists() else []
    history.append(record)
    args.out.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
