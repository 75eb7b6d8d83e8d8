#!/usr/bin/env python3
"""Build and run the end-to-end campaign benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload campaign_cold --seed 1 --seconds 15 --trace 0

The first run configures and builds e2ebench/ (which compiles ../src) into
.bench_build/e2ebench; later runs only re-check the build. The benchmark
binary prints a provenance record line and, as the last line, the JSON
result. The exit code is the binary's: non-zero when an op failed or an
output check did not hold.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "e2ebench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build(jobs):
    build_dir = os.path.join(BUILD, "build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "e2e_bench",
           "-j", str(jobs)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(build_dir, "e2e_bench")


def git_commit():
    # Only the checkout's own repository: git would otherwise search the
    # parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["campaign_cold", "stream_eval", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    nproc = os.cpu_count() or 1
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("src/ is missing: the benchmark builds the repository's sources")
        return 1
    # Keep the compiler's and the benchmark's temporary files in the checkout.
    tmp = os.path.abspath(os.path.join(BUILD, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    binary = build(nproc)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    # The daemon narrates every stage of every execution on stderr; keep that
    # in a log and show its tail only when the run fails.
    log_path = os.path.join(BUILD, f"{args.workload}.log")
    with open(log_path, "w") as err:
        proc = subprocess.Popen(cmd, stderr=err)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
            proc.kill()
            proc.wait()
            code = 1
    if code != 0:
        with open(log_path) as err:
            sys.stderr.writelines(err.readlines()[-40:])
        log(f"exit code {code}; full log in {log_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
