"""Unit tests for bench/e2e/compare.py.

  python3 -m unittest discover -s bench/e2e/tests

The fixtures hold ten paired runs of one workload: throughput gains,
latency_p50 regresses, latency_p99 is too spread out to call, set-up time
does not move, and tc_ratio (exact) reads worse on one seed by less than
its bound.
"""
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402


def fixture_rows():
    with open(os.path.join(FIXTURES, "benchmark.json")) as f:
        bench = json.load(f)
    rows = compare.compare(
        compare.load_runs(os.path.join(FIXTURES, "parent.jsonl")),
        compare.load_runs(os.path.join(FIXTURES, "change.jsonl")), bench)
    return {r["metric"]: r for r in rows}


class CompareFixtures(unittest.TestCase):
    def setUp(self):
        self.rows = fixture_rows()

    def test_one_row_per_workload_and_metric(self):
        # Workload "v" has no runs, so only "w" rows appear.
        self.assertEqual(sorted(self.rows), ["latency_p50_us", "latency_p99_us",
                                             "setup_s", "tc_ratio",
                                             "throughput_rps"])
        self.assertTrue(all(r["workload"] == "w" for r in self.rows.values()))

    def test_gain(self):
        r = self.rows["throughput_rps"]
        self.assertEqual(r["verdict"], "gain")
        self.assertEqual((r["wins"], r["pairs"]), (10, 10))

    def test_regression(self):
        r = self.rows["latency_p50_us"]
        self.assertEqual(r["verdict"], "regression")
        self.assertGreater(r["change_pct"], 10.0)

    def test_unresolved(self):
        r = self.rows["latency_p99_us"]
        self.assertEqual(r["verdict"], "unresolved")
        self.assertGreater(r["spread"], r["bound"])

    def test_same(self):
        self.assertEqual(self.rows["setup_s"]["verdict"], "same")

    def test_exact_metric_regresses_on_one_worse_pair(self):
        r = self.rows["tc_ratio"]
        self.assertLess(r["change_pct"], 100.0 * r["bound"])
        self.assertEqual((r["losses"], r["verdict"]), (1, "regression"))


class VerdictRules(unittest.TestCase):
    def test_gain_needs_ten_pairs(self):
        parent = [100.0 + i for i in range(9)]
        change = [200.0 + i for i in range(9)]
        self.assertEqual(compare.verdict(parent, change, True, 0.1)["verdict"],
                         "same")

    def test_gain_needs_nine_tenths_of_pairs(self):
        parent = [100.0] * 10
        change = [120.0] * 8 + [90.0] * 2
        self.assertEqual(compare.verdict(parent, change, True, 0.1)["verdict"],
                         "same")

    def test_gain_needs_medians_apart_by_parent_iqr(self):
        parent = [100.0, 140.0] * 5
        change = [101.0, 141.0] * 5
        r = compare.verdict(parent, change, True, 0.5)
        self.assertEqual(r["wins"], 10)
        self.assertEqual(r["verdict"], "same")

    def test_wide_spread_is_not_unresolved_when_change_always_better(self):
        parent = [100.0, 300.0, 200.0, 250.0, 150.0]
        change = [10.0, 30.0, 20.0, 25.0, 15.0]
        self.assertEqual(compare.verdict(parent, change, False, 0.1)["verdict"],
                         "same")

    def test_exact_metric_spread_across_seeds_is_not_unresolved(self):
        parent = [1.0, 1.01, 1.02, 1.03] * 3
        self.assertEqual(
            compare.verdict(parent, parent, False, 0.001, exact=True)["verdict"],
            "same")

    def test_ties_count_for_neither_side(self):
        r = compare.verdict([5.0] * 10, [5.0] * 10, False, 0.1)
        self.assertEqual((r["wins"], r["losses"], r["verdict"]), (0, 0, "same"))


if __name__ == "__main__":
    unittest.main()
