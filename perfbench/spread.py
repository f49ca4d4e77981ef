#!/usr/bin/env python3
"""Spread report: runs one workload N times, each with its own seed, and
prints every metric's median, quartiles, quartile spread and worst
deviation against the bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload osm-relation --runs 10 [--seed0 1] [--trace 0]

The quartiles are Python's statistics.quantiles(values, n=4); the spread is
(q3 - q1) / median. A metric is steady enough when its spread stays below a
third of its bound (setup_s is judged by its median alone). The share of
failed operations must be identical in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}

    values = {}
    shares = []
    for k in range(args.runs):
        seed = args.seed0 + k
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if r.returncode != 0:
            sys.exit(f"run with seed {seed} failed ({r.returncode}):\n{r.stderr[-3000:]}")
        doc = json.loads(r.stdout.strip().splitlines()[-1])
        share = Fraction(doc["failed"], doc["attempted"])
        shares.append(share)
        print(f"seed {seed}: correct={doc['correct']} attempted={doc['attempted']} failed={doc['failed']} "
              + " ".join(f"{n}={m['value']:.6g}" for n, m in doc["metrics"].items()), flush=True)
        for name, m in doc["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<26}{'median':>13}{'q1':>13}{'q3':>13}{'spread':>9}{'worst':>9}{'bound':>7}")
    ok = True
    for name in bounds or values:
        v = values.get(name)
        if not v:
            print(f"{name:<26} missing")
            ok = False
            continue
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        worst = max(abs(x - med) for x in v) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag = "  <-- spread not below bound/3"
            ok = False
        print(f"{name:<26}{med:>13.6g}{q1:>13.6g}{q3:>13.6g}{spread:>8.1%}{worst:>8.1%}"
              f"{'' if bound is None else f'{bound:>7.2f}'}{flag}")
    same = len(set(shares)) == 1
    print(f"failed share: {'identical' if same else 'DIFFERS'} across runs ({sorted(set(shares))[:3]})")
    sys.exit(0 if ok and same else 1)


if __name__ == "__main__":
    main()
