#!/usr/bin/env python3
"""The verdict rule of tools/netseer_benchdiff.py on synthetic result lines.

Every case drives the script's own pair loop (`measure`) with a fake run
that prints perfbench-shaped result lines, then judges the pairs with the
directions and bounds of the repository's BENCHMARK.json. Nothing is
built and perfbench never runs.

    python3 tests/tools/benchdiff_rules_test.py
"""

import json
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.join(ROOT, "tools"))
import netseer_benchdiff as benchdiff  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    END_TO_END = json.load(f)["end_to_end"]
BOUND = {metric["name"]: metric["bound"] for metric in END_TO_END}
T = benchdiff.THRESHOLD
WORKLOAD = "fat8-dctcp"
# One run's metrics, varied from pair to pair as real runs are.
BASE = [{"throughput_per_s": 1.1e6 + 1e4 * i, "setup_s": 0.05 + 0.001 * i,
         "peak_rss_mb": 240.0 + i} for i in range(benchdiff.PAIRS)]


def result_line(metrics, correct=True):
    return json.dumps({
        "correct": correct, "attempted": 9, "failed": 0 if correct else 1,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    })


def fake_run(head, base, broken=None):
    """A run(side, workload) that prints pair i's metrics on the i-th call
    for each side. `broken` = (side, pair, status, stdout) replaces one
    run's output."""
    calls = {"head": 0, "base": 0}

    def run(side, workload):
        pair = calls[side]
        calls[side] += 1
        if broken is not None and broken[:2] == (side, pair):
            return broken[2], broken[3], "perfbench: stderr of the broken run\n"
        metrics = (head if side == "head" else base)[pair]
        return 0, f"some build output\n{result_line(metrics)}\n", ""

    return run


def scaled(name, factors, runs=BASE):
    """`runs` with metric `name` multiplied by factors[i] in pair i."""
    return [dict(run, **{name: run[name] * factor}) for run, factor in zip(runs, factors)]


def judge(head, base=BASE):
    """The verdict rows of one workload, by metric name."""
    results = benchdiff.measure([WORKLOAD], fake_run(head, base))
    return {row["metric"]: row for row in benchdiff.compare(results, END_TO_END)}


def failures(head, base=BASE):
    return {name: row["failures"] for name, row in judge(head, base).items() if row["failures"]}


class VerdictRule(unittest.TestCase):
    def test_identical_sides_pass(self):
        self.assertEqual(failures(BASE), {})

    def test_a_quarter_less_throughput_in_every_pair_fails(self):
        failed = failures(scaled("throughput_per_s", [0.75] * benchdiff.PAIRS))
        self.assertEqual(list(failed), ["throughput_per_s"])

    def test_worse_in_every_pair_by_less_than_t_passes(self):
        self.assertEqual(failures(scaled("throughput_per_s", [1 - T / 2] * benchdiff.PAIRS)), {})

    def test_worse_median_in_six_pairs_within_bound_passes(self):
        loss = (T + BOUND["throughput_per_s"]) / 2
        self.assertEqual(failures(scaled("throughput_per_s", [1 - loss] * 6 + [1.01] * 4)), {})

    def test_lower_setup_time_is_better_and_passes(self):
        self.assertEqual(failures(scaled("setup_s", [0.5] * benchdiff.PAIRS)), {})

    def test_higher_setup_time_in_every_pair_fails(self):
        failed = failures(scaled("setup_s", [1 + 2 * T] * benchdiff.PAIRS))
        self.assertEqual(list(failed), ["setup_s"])

    def test_median_worse_than_bound_fails_whatever_the_pairs(self):
        loss = BOUND["throughput_per_s"] + 0.15
        failed = failures(scaled("throughput_per_s", [1 - loss] * 6 + [1.01] * 4))
        self.assertEqual(len(failed["throughput_per_s"]), 1)
        self.assertIn("bound", failed["throughput_per_s"][0])

    def test_median_worse_than_bound_among_widely_spread_runs_is_unresolved(self):
        # Half the base runs read half the others: the quartiles lie
        # further apart than the bound.
        noisy = scaled("throughput_per_s", [0.5, 1.5] * 5)
        head = scaled("throughput_per_s", [0.5] * 6 + [1.0] * 4, runs=noisy)
        row = judge(head, noisy)["throughput_per_s"]
        self.assertEqual(row["failures"], [])
        self.assertIn("spread", row["unresolved"])


class FailedRunsStopTheScript(unittest.TestCase):
    def stop_message(self, status, stdout):
        run = fake_run(BASE, BASE, broken=("base", 2, status, stdout))
        with self.assertRaises(SystemExit) as stop:
            benchdiff.measure([WORKLOAD], run)
        # A message (not an int) exits with status 1.
        self.assertIsInstance(stop.exception.code, str)
        self.assertIn(f"base run of {WORKLOAD}, pair 3", stop.exception.code)
        return stop.exception.code

    def test_incorrect_run_stops(self):
        self.assertIn("failed", self.stop_message(1, result_line(BASE[2], correct=False)))

    def test_nonzero_exit_stops_even_with_a_correct_result_line(self):
        self.assertIn("exit status 1", self.stop_message(1, result_line(BASE[2])))

    def test_incorrect_run_stops_even_with_exit_status_zero(self):
        self.assertIn("failed", self.stop_message(0, result_line(BASE[2], correct=False)))

    def test_run_without_result_line_stops(self):
        self.assertIn("no result line", self.stop_message(1, "perfbench: build failed\n"))
        self.assertIn("no result line", self.stop_message(0, ""))


if __name__ == "__main__":
    unittest.main()
