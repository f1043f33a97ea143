#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds per workload and
reports, per end-to-end metric, the median and the spread (distance
between the first and third quartile as a share of the median).

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--out FILE]

Run from the repository root after `cargo build --release` of
perfbench/. The record written to --out holds every value, the spreads
and the environment line the benchmark printed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

BIN = "perfbench/target/release/axmul-perfbench"


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"seconds": seconds, "workloads": {}}
    ok = True
    for w in workloads:
        values = {m: [] for m in bounds}
        walls = []
        for seed in seeds(args.seeds):
            t0 = time.time()
            out = subprocess.run(
                [BIN, "--workload", w, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True,
            ).stdout.strip().splitlines()
            walls.append(round(time.time() - t0, 1))
            record["env"] = json.loads(next(l for l in out if l.startswith("env: "))[5:])
            res = json.loads(out[-1])
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{w} seed {seed}: INCORRECT {res}", file=sys.stderr)
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{m}={values[m][-1]:.5g}" for m in bounds), flush=True)
        rows = {}
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            rows[m] = {"median": med, "spread": spread, "bound": bounds[m], "values": v}
            flag = "" if m == "setup_s" or spread < bounds[m] / 3 else "  <-- above bound/3"
            print(f"{w:14} {m:16} median {med:12.5f} spread {spread:7.4f} (bound {bounds[m]}){flag}")
        record["workloads"][w] = {"metrics": rows, "wall_s": walls}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
