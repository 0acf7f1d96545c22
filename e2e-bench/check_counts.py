#!/usr/bin/env python3
"""Check that the benchmark's exact counts repeat for one seed.

Runs the traced run of every workload twice with the same seed and fails
unless each count below reads the same in both runs. These are the counts
later changes may name as claims, so they must not depend on timing.

Usage, from the repository root:
    python3 e2e-bench/check_counts.py [--seed N] [--seconds S]
"""

import argparse
import json
import subprocess
import sys

EXACT = [
    "select.fallback_ratio",
    "select.cache_hit_ratio",
    "sum.bytes_read_per_elem",
    "agg.shard_skew",
    "agg.state_bytes",
    "obs.manifest_bytes",
    "obs.flight_events_per_op",
]


# Every runnable workload, including those BENCHMARK.json leaves out.
WORKLOADS = ["reduce-narrow", "reduce-wide", "agg-ingest", "cli-roundtrip"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="4")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = EXACT + [m["name"] for m in bench["per_layer"] if m["name"].startswith("select.chosen_")]
    bad = 0
    for w in WORKLOADS:
        runs = []
        for _ in range(2):
            cmd = bench["command"] + ["--workload", w, "--seed", args.seed,
                                      "--seconds", args.seconds, "--trace", "1"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{w}: run reported failures: {result['failed']}")
                bad += 1
            runs.append(result["metrics"])
        for n in names:
            a, b = runs[0][n]["value"], runs[1][n]["value"]
            same = a == b
            bad += not same
            print(f"{w:14} {n:28} {a!r:>22} {b!r:>22} {'same' if same else 'DIFFERENT'}")
    print("exact counts repeat" if bad == 0 else f"{bad} count(s) differ or runs failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
