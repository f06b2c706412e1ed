#!/usr/bin/env python3
"""Paper-path benchmark entry point.

Builds perfbench_e2e from the repository's sources (incrementally, in
$CARGO_TARGET_DIR or .bench_build), runs one workload, and passes its
result through. The last line on stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit status is 0 only when
every correctness check passed.

    python3 perfbench/run.py --workload testbed-web-faults --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root. Workloads: testbed-web-faults,
fat8-dctcp, store-tail. --trace 1 prints the per-layer metrics instead of
the end-to-end ones.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("testbed-web-faults", "fat8-dctcp", "store-tail")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure and build perfbench_e2e; return the binary's path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("perfbench: no src/ next to perfbench/; run from a full checkout")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)  # absolute paths pass through join unchanged
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench_e2e", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sabotage", action="store_true",
                        help="lose one report batch, so the correctness checks must fail")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        raise SystemExit(f"perfbench: build failed: {err}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.sabotage:
        command.append("--sabotage")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"perfbench: no result line (exit status {proc.returncode})")
    if set(result) != RESULT_KEYS:
        raise SystemExit(f"perfbench: malformed result keys {sorted(result)}")
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
