#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs every workload (or those given with --workload) once per seed and
reports, per metric, the median and the distance between the first and
third quartiles as a share of the median -- the spread a change's
regression bound has to clear. Flags a spread above a third of the
metric's bound in BENCHMARK.json (setup_s is reported, not flagged).

    python3 perfbench/spread.py --seeds 10 --first-seed 1
    python3 perfbench/spread.py --workload open-mixed --seeds 5

Run from the repository root. Exits 1 when a run fails or is incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            run = subprocess.run(cmd, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if args.verbose:
                steal = [l for l in lines if "CPU time stolen" in l]
                print(f"  seed {seed}: {steal[0] if steal else 'no steal line'}", flush=True)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.seeds} seeds from {args.first_seed})")
        for name, vs in values.items():
            if len(vs) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:<24} median {med:<14.6g} spread {spread:6.3f} "
                  f"(bound {bounds[name]}){flag}")
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in vs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
