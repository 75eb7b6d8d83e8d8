#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: the deterministic counts repeat.

Runs the traced mode of every workload twice with one seed and asserts that
the work counts the traced run reports are exactly equal across the two
runs, that every output check passed and that no op failed. Walls are not
compared: they belong in the record, not in a pass/fail floor.

    python3 e2ebench/selftest.py [--seed N] [--seconds S]
"""
import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["campaign_cold", "stream_eval", "serve"]
DETERMINISTIC = [
    "hafi.dut_passes",
    "hafi.executed",
    "hafi.pruned",
    "mate.search_dedup_classes",
    "pipeline.cache_stores",
    "serve.executions",
    "serve.deduped",
]


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload}: benchmark exited {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload}: checks failed: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=2)
    args = p.parse_args()

    mismatches = 0
    for workload in WORKLOADS:
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        for name in DETERMINISTIC:
            same = first[name] == second[name]
            mismatches += not same
            print(f"{workload:14s} {name:28s} {first[name]:>12g} "
                  f"{second[name]:>12g} {'ok' if same else 'MISMATCH'}")
    if mismatches:
        print(f"FAILED: {mismatches} deterministic counts differ")
        return 1
    print("ok: every deterministic count repeats exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
