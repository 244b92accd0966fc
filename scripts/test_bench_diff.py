#!/usr/bin/env python3
"""Unit tests for bench_diff.py's smoke/full guard.

  python3 scripts/test_bench_diff.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench_diff.py")


def artifact(smoke, batched_ns):
    return {"meta": {"smoke": smoke},
            "batched": {"batched_ns_per_eval": batched_ns}}


class SmokeGuardTest(unittest.TestCase):
    def run_diff(self, old, new):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("old.json", old), ("new.json", new)):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    json.dump(doc, f)
                paths.append(path)
            return subprocess.run(
                [sys.executable, BENCH_DIFF, *paths, "--gate"],
                capture_output=True, text=True)

    def test_matching_runs_are_compared(self):
        proc = self.run_diff(artifact(False, 50.0), artifact(False, 51.0))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("batched ns/eval", proc.stdout)
        regressed = self.run_diff(artifact(True, 50.0), artifact(True, 70.0))
        self.assertEqual(regressed.returncode, 1, regressed.stderr)

    def test_smoke_full_mix_is_refused(self):
        for old, new in ((False, True), (True, False)):
            proc = self.run_diff(artifact(old, 50.0), artifact(new, 50.0))
            self.assertEqual(proc.returncode, 2, proc.stderr)
            self.assertIn(f"meta.smoke={json.dumps(old)}", proc.stderr)
            self.assertIn(f"meta.smoke={json.dumps(new)}", proc.stderr)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
