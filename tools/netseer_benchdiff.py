#!/usr/bin/env python3
"""Same-runner A/B comparison of the paper-path benchmark (perfbench/).

    python3 tools/netseer_benchdiff.py <base-checkout>

The head is the checkout this script lives in; <base-checkout> is a
checkout of the commit to compare it with. Everything else comes from the
head's BENCHMARK.json: the command, run_seconds, the workloads, and each
end-to-end metric's direction (`better`) and `bound`.

Each side builds perfbench in a build tree of its own, with the same
compiler flags. Then every workload runs PAIRS pairs at seed 1 with
--trace 0, one run at a time, and the side that goes first alternates,
so drift of the machine over the run falls on both sides alike. The
script prints one row per workload and metric: each side's median and
quartiles, the median of the paired ratios head/base, and how many pairs
favour each side (ties count for neither).

Exit status: 1 when a metric fails on a workload (see `verdict`) or when
a run fails or prints no result line; 0 otherwise, and also when
BENCHMARK.json or perfbench/ differs between the sides, since a changed
benchmark is its own baseline and there is nothing to compare it with.
2 is a usage error.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("head", "base")
PAIRS = 10
SEED = 1
MIN_WORSE_PAIRS = 9
# T sits above the offsets code placement alone gives an unchanged path
# (up to about 5% between earlier commits) and at the edge of the noise
# between two builds of the same code: three A/A runs (10 pairs of each
# workload at run_seconds 20, 4-core Intel Xeon VM) moved median paired
# ratios by at most 7.7% (store-tail setup_s), 9.7% (fat8-dctcp
# throughput_per_s) and 5.6% (testbed-web-faults throughput_per_s). None
# reached the pair count: no side won more than 8 of 10 pairs on a row.
THRESHOLD = 0.10


def benchmark_files(root):
    """Map every file that defines the benchmark to its bytes."""
    files = {}
    path = os.path.join(root, "BENCHMARK.json")
    if os.path.isfile(path):
        with open(path, "rb") as f:
            files["BENCHMARK.json"] = f.read()
    for directory, _, names in os.walk(os.path.join(root, "perfbench")):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


def build(root, build_dir):
    """Configure and build perfbench_e2e the way perfbench/run.py does, so
    the timed runs only find it up to date."""
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        subprocess.run(configure, check=True, stdout=subprocess.DEVNULL)
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench_e2e", "-j", jobs],
                       check=True, stdout=subprocess.DEVNULL)
    except (OSError, subprocess.CalledProcessError) as err:
        raise SystemExit(f"benchdiff: building perfbench in {root} failed: {err}")


def parse_result(status, stdout, stderr, where):
    """The metrics of one run's result line; stops the script when the run
    failed or printed no result line."""
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
        metrics = {name: float(metric["value"]) for name, metric in result["metrics"].items()}
        correct = result["correct"]
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        raise SystemExit(f"benchdiff: {where}: no result line (exit status {status})\n{stderr}")
    if status != 0 or correct is not True:
        raise SystemExit(f"benchdiff: {where} failed (exit status {status}, "
                         f"correct {json.dumps(correct)})\n{stderr}")
    return metrics


def measure(workloads, run):
    """PAIRS alternating pairs of every workload. `run(side, workload)`
    returns (exit status, stdout, stderr). Returns
    {workload: {side: [metrics of each run]}}."""
    results = {}
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for pair in range(PAIRS):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                status, stdout, stderr = run(side, workload)
                where = f"{side} run of {workload}, pair {pair + 1}"
                runs[side].append(parse_result(status, stdout, stderr, where))
        print(f"benchdiff: {workload}: {PAIRS} pairs done", file=sys.stderr, flush=True)
        results[workload] = runs
    return results


def verdict(metric, head, base):
    """Compare one metric's paired values. `metric` is its BENCHMARK.json
    entry; head[i] and base[i] come from pair i. The metric fails when
    the head is worse in at least MIN_WORSE_PAIRS pairs and its median
    paired ratio is worse than 1 by more than THRESHOLD, or when the
    head's median is worse than the base's by more than `bound`. When
    the base's own runs spread wider than `bound` (interquartile range
    over median), a median that far off can be noise: the row then
    reads unresolved, and only the pair rule can fail it."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    ratios = [h / b if b else (1.0 if h == b else float("inf")) for h, b in zip(head, base)]
    ratio = statistics.median(ratios)
    head_median, head_q = statistics.median(head), statistics.quantiles(head, n=4)
    base_median, base_q = statistics.median(base), statistics.quantiles(base, n=4)
    row = {
        "metric": metric["name"],
        "head": (head_median, head_q),
        "base": (base_median, base_q),
        "ratio": ratio,
        "head_wins": sum(1 for h, b in zip(head, base) if sign * (h - b) > 0),
        "base_wins": sum(1 for h, b in zip(head, base) if sign * (h - b) < 0),
        "failures": [],
        "unresolved": None,
    }
    # Both losses are positive when the head is worse.
    pair_loss = sign * (1.0 - ratio)
    median_loss = sign * (base_median - head_median) / base_median if base_median else 0.0
    spread = (base_q[2] - base_q[0]) / base_median if base_median else 0.0
    if row["base_wins"] >= MIN_WORSE_PAIRS and pair_loss > THRESHOLD:
        row["failures"].append(f"worse in {row['base_wins']} of {len(ratios)} pairs by "
                               f"{100 * pair_loss:.1f}% > {100 * THRESHOLD:g}%")
    if median_loss > metric["bound"]:
        message = f"median worse by {100 * median_loss:.1f}% > bound {100 * metric['bound']:g}%"
        if spread > metric["bound"]:
            row["unresolved"] = f"{message}, but base runs spread {100 * spread:.1f}%"
        else:
            row["failures"].append(message)
    return row


def compare(results, end_to_end):
    """One verdict row per workload and end-to-end metric."""
    rows = []
    for workload, runs in results.items():
        for metric in end_to_end:
            head = [r[metric["name"]] for r in runs["head"]]
            base = [r[metric["name"]] for r in runs["base"]]
            rows.append(dict(verdict(metric, head, base), workload=workload))
    return rows


def print_table(rows):
    def spread(side):
        median, (q1, _, q3) = side
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

    print(f"{'workload':<20} {'metric':<18} {'base median [q1, q3]':<34} "
          f"{'head median [q1, q3]':<34} {'head/base':>9}  {'pairs h:b':>9}  verdict")
    for row in rows:
        wins = f"{row['head_wins']}:{row['base_wins']}"
        print(f"{row['workload']:<20} {row['metric']:<18} {spread(row['base']):<34} "
              f"{spread(row['head']):<34} {row['ratio']:>9.4f}  {wins:>9}  "
              + ("FAIL: " + "; ".join(row["failures"]) if row["failures"] else
                 "unresolved: " + row["unresolved"] if row["unresolved"] else "ok"))


def main(argv):
    if len(argv) == 2 and argv[1] in ("-h", "--help"):
        print(__doc__)
        return 0
    if len(argv) != 2 or not os.path.isdir(os.path.join(argv[1], "src")):
        print(f"usage: {argv[0]} <base-checkout>\n(a checkout of the repository to "
              "compare this one with)", file=sys.stderr)
        return 2
    roots = {"head": ROOT, "base": os.path.abspath(argv[1])}
    if benchmark_files(roots["head"]) != benchmark_files(roots["base"]):
        print("benchdiff: BENCHMARK.json or perfbench/ differs between head and base; a "
              "changed benchmark is its own baseline, so nothing is compared")
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)

    with tempfile.TemporaryDirectory(prefix="netseer-benchdiff-") as scratch:
        build_dirs = {side: os.path.join(scratch, side) for side in SIDES}
        for side in SIDES:
            print(f"benchdiff: building perfbench for {side} ({roots[side]})", file=sys.stderr,
                  flush=True)
            build(roots[side], build_dirs[side])

        def run(side, workload):
            command = benchmark["command"] + [
                "--workload", workload, "--seed", str(SEED),
                "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(command, cwd=roots[side], stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  env=dict(os.environ, CARGO_TARGET_DIR=build_dirs[side]))
            return proc.returncode, proc.stdout, proc.stderr

        results = measure([w["name"] for w in benchmark["workloads"]], run)

    rows = compare(results, benchmark["end_to_end"])
    print_table(rows)
    failed = [f"{row['workload']} {row['metric']}" for row in rows if row["failures"]]
    if failed:
        print(f"benchdiff: FAIL: {', '.join(failed)}")
        return 1
    print("benchdiff: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
