#!/usr/bin/env python3
"""Tests for the benchmark itself.

Run from the root of the checkout:

    python3 perfbench/test_run.py

They run every workload at its tiny size, so the whole file takes
seconds once the program is built.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = run.spec()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload, seed, trace, cwd="."):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    """A tiny run of each workload passes the gate and emits every metric."""

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_untraced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                proc = bench(w, 3, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                record, result = parse(proc)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
                self.assertGreaterEqual(len(record["repetitions"]),
                                        run.MIN_REPS)
                self.assertEqual(run.gate(record["repetitions"]), [])
                self.assertIsNotNone(record["host"]["cores"])

    def test_traced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                proc = bench(w, 3, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                _, result = parse(proc)
                self.check_metrics(result, SPEC["per_layer"])

    def test_second_seed_changes_simulated_metrics(self):
        simulated = ("work_per_msg", "latency_rounds_p99", "msgs_per_round")
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a_rec, a = parse(bench(w, 3, 0))
                b_rec, b = parse(bench(w, 4, 0))
                self.assertNotEqual(a_rec["repetitions"][0]["digest"],
                                    b_rec["repetitions"][0]["digest"])
                self.assertTrue(any(a["metrics"][k] != b["metrics"][k]
                                    for k in simulated))


class Gate(unittest.TestCase):
    """The gate trips when one repetition's simulated output moves."""

    @classmethod
    def setUpClass(cls):
        proc = bench("serve-drift", 5, 0)
        assert proc.returncode == 0, proc.stderr
        cls.reps = parse(proc)[0]["repetitions"]

    def test_identical_reps_pass(self):
        self.assertEqual(run.gate(self.reps), [])

    def test_host_times_may_differ(self):
        reps = copy.deepcopy(self.reps)
        reps[1]["serve_s"] *= 1.5
        reps[2]["setup_s"] *= 0.5
        self.assertEqual(run.gate(reps), [])

    def test_perturbed_simulated_output_trips(self):
        for key, delta in (("work", 1.0), ("rotations", 1), ("makespan", -1),
                           ("heap_words", 512), ("latency_rounds_p99", 1.0),
                           ("pauses", 1)):
            with self.subTest(field=key):
                reps = copy.deepcopy(self.reps)
                reps[-1][key] += delta
                errors = run.gate(reps)
                self.assertTrue(any(key in e for e in errors), errors)
        reps = copy.deepcopy(self.reps)
        reps[1]["digest"] = "0"
        self.assertTrue(run.gate(reps))

    def test_undelivered_or_broken_tree_trips(self):
        reps = copy.deepcopy(self.reps)
        for r in reps:
            r["delivered"] -= 1
            r["failed"] += 1
        self.assertTrue(run.gate(reps))
        reps = copy.deepcopy(self.reps)
        for r in reps:
            r["check"] = "bst order violated"
        self.assertTrue(run.gate(reps))


class BareDirectory(unittest.TestCase):
    """Without the program's sources the benchmark fails, printing no result."""

    def test_fails_without_sources(self):
        root = os.path.join(run.WORK_DIR, "bare")
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        try:
            shutil.copy("BENCHMARK.json", root)
            shutil.copytree("perfbench", os.path.join(root, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("hpc-saturated", 1, 0, cwd=root)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(run.WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
