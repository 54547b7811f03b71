#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/steadiness.py --workload fleet_edelay --seeds 1-10 [--seconds 25] [--trace 0]

Run it from the repository root. For each metric it prints the median, the
first and third quartiles as statistics.quantiles(values, n=4) gives them,
and their distance as a share of the median. Each run's result line is
appended to --log as JSON, so sets of runs can be compared later.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--log", default="")
    args = ap.parse_args()

    values = {}
    for seed in seeds(args.seeds):
        cmd = ["sh", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, "result": res}) + "\n")
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {line}",
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    for k, v in sorted(values.items()):
        if len(v) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        print(f"{k}: n={len(v)} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}")


if __name__ == "__main__":
    sys.exit(main())
