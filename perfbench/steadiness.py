"""Two sets of benchmark runs of the same code, compared metric by metric.

    python3 perfbench/steadiness.py --runs 10

Runs `perfbench/run.py --trace 0` for each workload of BENCHMARK.json,
2 x --runs times for run_seconds each, interleaving the two sets (A, B, A,
B, ...) so that both spread over the same stretch of time, with a fresh
seed for every run. For each workload and metric it
prints each set's median, quartiles and spread (quartile distance over
median), the difference of the medians, and whether these stay within the
bound in BENCHMARK.json. It also compares the share of failed operations.
Raw results go to perfbench/out/steadiness-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1000


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["run_s"] = took
    res["seed"] = seed
    if not res["correct"]:
        sys.stderr.write(proc.stderr)
    return res


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.nan


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: {"A": [], "B": []} for w in names}
    seed = FIRST_SEED
    for i in range(args.runs):
        for s in ("A", "B"):
            for w in names:
                res = _run(w, seed, seconds)
                seed += 1
                results[w][s].append(res)
                sys.stderr.write(f"run {i + 1}/{args.runs} set {s} {w} seed {res['seed']}: "
                                 f"{res['run_s']:.1f} s, failed {res['failed']}/"
                                 f"{res['attempted']}\n")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    ok = True
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':44s} {'A median':>11s} {'A q1..q3':>23s} {'A spr':>6s} "
              f"{'B median':>11s} {'B spr':>6s} {'B-A':>7s} {'bound':>6s}")
        sets = results[w]
        for name in sets["A"][0]["metrics"]:
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            ma, qa1, qa3, sa = spread(a)
            mb, _, _, sb = spread(b)
            diff = (mb - ma) / ma if ma else math.nan
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(sa, sb)
                if worst > bound or abs(diff) > bound:
                    flag, ok = " OVER", False
                elif worst > bound / 3:
                    flag = " >1/3"
            print(f"  {name:44s} {ma:11.5g} {qa1:11.5g}..{qa3:<11.5g} {sa:6.3f} "
                  f"{mb:11.5g} {sb:6.3f} {diff:+7.3f} "
                  f"{'' if bound is None else f'{bound:6.2f}'}{flag}")
        share = [sum(r["failed"] for r in sets[s]) / sum(r["attempted"] for r in sets[s])
                 for s in ("A", "B")]
        longest = max(r["run_s"] for s in ("A", "B") for r in sets[s])
        print(f"  failed share A {share[0]:.6f}, B {share[1]:.6f}; longest run {longest:.1f} s")
        ok = ok and share[0] == share[1]
    print(f"\nraw results: {path}")
    print("steady within bounds" if ok else "NOT steady within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
