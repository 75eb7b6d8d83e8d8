#!/usr/bin/env python3
"""Run one e2ebench workload and append its record to BENCH_e2e.json.

Run from the repository root, once per side of a before/after pair:

    python3 tools/bench_record.py --side change --workload campaign_cold \\
        --seed 1 --seconds 40 --trace 0
    python3 tools/bench_record.py --side parent --checkout ../parent \\
        --workload campaign_cold --seed 1 --seconds 40 --trace 0

--checkout runs that checkout's e2ebench/run.py (default: this repository),
e.g. a clone of the parent commit. The record is e2ebench's stdout line
before its result line: workload, seed, machine and build provenance, the
sample sets and every metric (e2ebench/README.md). It is appended, tagged
{"side": "parent" | "change", "dirty": bool | null}, to the JSON array in
--out. "dirty" says whether the checkout had uncommitted changes
(BENCH_e2e.json aside), in which case the record's commit is only the
tree's base; it is null when the checkout has no .git of its own (say, a
`git archive` copy) or git cannot report its status. A run that fails its
checks is not recorded, and the exit code is e2ebench's.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checkout_dirty(checkout):
    """True or False when git reports the checkout's own status, else None.

    Only the checkout's own repository counts: git would otherwise report
    an enclosing repository's status.
    """
    if not os.path.exists(os.path.join(checkout, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "status", "--porcelain"], cwd=checkout,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return any(line[3:] != "BENCH_e2e.json"
               for line in proc.stdout.splitlines())


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--side", required=True, choices=["parent", "change"])
    p.add_argument("--checkout", default=ROOT)
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", default="0")
    args = p.parse_args()

    cmd = [sys.executable, os.path.join("e2ebench", "run.py"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    proc = subprocess.run(cmd, cwd=args.checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        print(f"bench_record: e2ebench exited {proc.returncode}; "
              "nothing recorded", file=sys.stderr)
        return proc.returncode or 1

    entries = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            entries = json.load(f)
    entries.append({"side": args.side, "dirty": checkout_dirty(args.checkout),
                    **json.loads(lines[-2])})
    tmp = args.out + ".tmp"
    with open(tmp, "w") as f:
        json.dump(entries, f, indent=1)
        f.write("\n")
    os.replace(tmp, args.out)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
