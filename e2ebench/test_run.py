#!/usr/bin/env python3
"""Tests of the benchmark's output checks and failure counting.

Run: python3 e2ebench/test_run.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def record(seed=1000, flows=16, completed=16, reroutes=3, samples=100, digest="d0"):
    return {
        "seed": seed,
        "flows": flows,
        "completed": completed,
        "reroutes": reroutes,
        "samples": samples,
        "digest": digest,
    }


class EvaluateTest(unittest.TestCase):
    def test_clean_runs_pass(self):
        problems, attempted, failed = run.evaluate("te-stride8", [record(), record()])
        self.assertEqual(problems, [])
        self.assertEqual((attempted, failed), (32, 0))

    def test_incomplete_flow_counts_as_failed(self):
        runs = [record(), record(completed=15)]
        problems, attempted, failed = run.evaluate("te-stride8", runs)
        self.assertEqual(attempted, 32)
        self.assertEqual(failed, 1)
        self.assertEqual(len(problems), 1)
        self.assertIn("did not complete", problems[0])

    def test_failed_check_fails_every_flow_of_the_run(self):
        # a static run that sampled: the whole run is wrong
        problems, _, failed = run.evaluate("static-stride8", [record(samples=5)])
        self.assertEqual(failed, 16)
        self.assertIn("static run", problems[0])
        # PlanckTE without a reroute, and churn without samples
        _, _, failed = run.evaluate("te-stride8", [record(reroutes=0)])
        self.assertEqual(failed, 16)
        _, _, failed = run.evaluate("churn-mice", [record(samples=0)])
        self.assertEqual(failed, 16)

    def test_incomplete_run_that_fails_another_check_fails_all_flows(self):
        _, _, failed = run.evaluate("fabric-k16-sharded", [record(completed=10, samples=1)])
        self.assertEqual(failed, 16)

    def test_same_seed_must_reproduce_its_digest(self):
        runs = [record(seed=1000), record(seed=1001, digest="d1"), record(seed=1000, digest="dx")]
        problems, _, failed = run.evaluate("te-stride8", runs)
        self.assertEqual(failed, 16)
        self.assertEqual(len(problems), 1)
        self.assertIn("seed 1000", problems[0])

    def test_traced_run_must_match_untraced_digest(self):
        traced = {"seed": 1000, "traced_digest": "other"}
        problems, attempted, failed = run.evaluate("te-stride8", [record()], traced)
        self.assertEqual((attempted, failed), (32, 16))
        self.assertIn("traced run", problems[0])


class SeedTest(unittest.TestCase):
    def test_run_seeds_are_made_from_the_seed(self):
        self.assertEqual(run.run_seeds(3), run.run_seeds(3))
        self.assertEqual(len(run.run_seeds(3)), run.SEEDS_PER_ROUND)
        self.assertFalse(set(run.run_seeds(3)) & set(run.run_seeds(4)))


if __name__ == "__main__":
    unittest.main()
