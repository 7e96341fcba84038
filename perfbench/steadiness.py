#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py --workload links-bulk --runs 10 [--first-seed 1] [--keep DIR]

runs the benchmark once per seed (seeds first-seed .. first-seed+runs-1),
and prints for every end-to-end metric the median and the spread
(inter-quartile distance over the median, as statistics.quantiles gives
it) of its normalised values, of its raw values beside them, and the
metric's bound from BENCHMARK.json.  --keep saves each run's output in
DIR.  Run it from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def run_once(workload, seed, seconds, keep):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    if keep:
        with open(f"{keep}/{workload}-{seed}.txt", "w") as f:
            f.write(out.stdout)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed (seed {seed}, exit {out.returncode}):\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    raw = {}
    for line in lines:
        if line.startswith("stamp:"):
            stamp = dict(kv.split("=", 1) for kv in line.split()[1:] if "=" in kv)
            raw["calib.index_ms"] = float(stamp["probe_index_ms"])
        parts = line.split()
        if len(parts) == 4 and parts[0] in result["metrics"]:
            raw[parts[0]] = float(parts[2])
    return result, raw


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--keep", help="directory to save each run's output in")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    norm, raw = {}, {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, r = run_once(args.workload, seed, seconds, args.keep)
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {result}")
        for name, m in result["metrics"].items():
            norm.setdefault(name, []).append(m["value"])
            raw.setdefault(name, []).append(r.get(name, m["value"]))
        raw.setdefault("calib.index_ms", []).append(r["calib.index_ms"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"{'metric':28} {'median':>12} {'spread':>8} {'raw median':>12} {'raw spread':>10} {'bound':>6}")
    med, s = spread(raw["calib.index_ms"])
    print(f"{'calib.index_ms':28} {'':12} {'':8} {med:12.6g} {s:10.4f}")
    for name, values in norm.items():
        med, s = spread(values)
        rmed, rs = spread(raw[name])
        flag = "" if s <= bounds[name] / 3 or name == "setup_s" else "  <-- above a third of the bound"
        print(f"{name:28} {med:12.6g} {s:8.4f} {rmed:12.6g} {rs:10.4f} {bounds[name]:6.3f}{flag}")


if __name__ == "__main__":
    main()
