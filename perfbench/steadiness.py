#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the benchmark several times per workload and prints, for every
metric, its median, its quartile spread ((Q3 - Q1) / median, quartiles as
`statistics.quantiles(values, n=4)` gives them) and whether every run read
exactly the same value. With `--repeat N` every run uses the same seed, so
the exact-repeat column shows which counts are deterministic (add
`--cycles N` so every run measures the same window); with
`--seeds` each run uses another seed, which is how the end-to-end bounds
in BENCHMARK.json are checked.

Run from the repository root:

    python3 perfbench/steadiness.py --workload aged_97 --seeds 1,2,3,4,5
    python3 perfbench/steadiness.py --trace 1 --repeat 3 --seed 7 --cycles 4

Runs go through the BENCHMARK.json command, which rebuilds through cargo
when needed. A spread above a third of the metric's bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd, workload, seed, seconds, trace, cycles):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    if cycles:
        args += ["--cycles", str(cycles)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: {' '.join(args)} (exit {proc.returncode})")
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    return json.loads(lines[-1]), host


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seeds", help="comma-separated seeds, one run each")
    p.add_argument("--repeat", type=int, help="runs of the one --seed")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--cycles", type=int,
                   help="measure this many cycles instead of --seconds")
    a = p.parse_args()

    if a.seeds:
        seeds = [int(s) for s in a.seeds.split(",")]
    else:
        seeds = [a.seed] * (a.repeat or 3)
    cmd = spec["command"]
    defs = spec["per_layer"] if a.trace else spec["end_to_end"]
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    for w in workloads:
        runs = []
        for seed in seeds:
            result, host = run_once(cmd, w, seed, a.seconds, a.trace,
                                    a.cycles)
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: incorrect result {result}")
            runs.append((result, host))
        steal = [h.get("steal_frac", 0.0) for _, h in runs]
        print(f"\n{w}: {len(runs)} runs, seeds {seeds}, trace {a.trace}, "
              f"steal {min(steal):.3f}-{max(steal):.3f}")
        print(f"  {'metric':36} {'median':>14} {'spread':>8} {'bound':>6} "
              f"{'min':>14} {'max':>14}  exact")
        exact = []
        for d in defs:
            vals = [r["metrics"][d["name"]]["value"] for r, _ in runs]
            med, sp = spread(vals)
            same = len(set(vals)) == 1
            if same:
                exact.append(d["name"])
            bound = d.get("bound")
            flag = ""
            if bound is not None and sp > bound / 3:
                flag = "  > bound/3"
            print(f"  {d['name']:36} {med:14.6g} {sp:8.4f} "
                  f"{'' if bound is None else bound:>6} {min(vals):14.6g} "
                  f"{max(vals):14.6g}  {'yes' if same else 'no'}{flag}")
        print(f"  repeat exactly: {', '.join(exact) if exact else 'none'}")


if __name__ == "__main__":
    main()
