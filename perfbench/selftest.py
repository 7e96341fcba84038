#!/usr/bin/env python3
"""The benchmark's own test: exact counts repeat.

    python3 perfbench/selftest.py [--seed N] [workload ...]

runs every workload (or the ones named) twice untraced and twice traced
on one seed, for one second each, and checks that every run is correct
and that the counts the benchmark reports as exact -- payload, wire and
rounds per release, and the gc.* figures -- are identical between the
two runs of a pair.  Run it from the root of a checkout; it exits 1 on
any difference.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["links-bulk", "scores-packed", "stream-epochs", "serve-mix"]
EXACT = {
    0: ["payload_bytes_per_release", "wire_bytes_per_release", "rounds_per_release"],
    1: ["gc.alloc_mb_per_release", "gc.major_per_release", "gc.minor_per_release",
        "crypto.ciphertexts_per_release", "net.sessions_per_release", "net.framing_ratio",
        "ingest.dirty_pairs_per_epoch", "core.recompute_frac"],
}


def run(workload, seed, trace):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} trace {trace}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} trace {trace}: incorrect run: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    bad = 0
    for workload in args.workloads:
        for trace, names in EXACT.items():
            a, b = run(workload, args.seed, trace), run(workload, args.seed, trace)
            for name in names:
                same = a[name] == b[name]
                bad += not same
                print(f"{workload:14} {name:32} {a[name]!r:>24} {b[name]!r:>24} "
                      f"{'same' if same else 'DIFFERENT'}", flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
