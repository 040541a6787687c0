#!/usr/bin/env python3
"""A/A steadiness: sets of benchmark runs of one commit, and their spread.

    python3 perfbench/aa.py --sets 2 --runs 10 --seconds 30

Each set runs every workload ``--runs`` times, each run on its own seed,
interleaving the workloads so a slow phase of the machine is shared.  For
every end-to-end metric it prints, per set, the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median, and
how far the set's median moved from the first set's.  The raw result lines
go to perfbench/out/aa.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from cases import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def bounds() -> dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def summarize(results: dict, sets: int) -> None:
    limit = bounds()
    for w in results:
        print(f"\n{w}")
        print(f"  {'metric':14s} {'set':>3s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'drift':>7s} {'bound':>6s}")
        first = results[w][0]
        for name in first[0]["metrics"]:
            base = statistics.median(r["metrics"][name]["value"] for r in first)
            for s in range(sets):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                print(f"  {name:14s} {s:3d} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                      f"{(q3 - q1) / med:7.3f} {med / base - 1:+7.3f} {limit[name]:6.2f}")
        for s in range(sets):
            shares = {r["failed"] / r["attempted"] for r in results[w][s]}
            correct = all(r["correct"] for r in results[w][s])
            print(f"  set {s}: failed shares {sorted(shares)}, all correct: {correct}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args()
    results = {w: [[] for _ in range(args.sets)] for w in WORKLOADS}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "aa.jsonl"), "a", encoding="utf-8") as log:
        for s in range(args.sets):
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                for w in WORKLOADS:
                    res = run_once(w, seed, args.seconds)
                    results[w][s].append(res)
                    log.write(json.dumps({"set": s, "workload": w, "seed": seed, **res}) + "\n")
                    log.flush()
                    print(f"set {s} run {i} {w} seed {seed}: correct {res['correct']}", flush=True)
    if args.runs >= 2:
        summarize(results, args.sets)
    return 0


if __name__ == "__main__":
    sys.exit(main())
