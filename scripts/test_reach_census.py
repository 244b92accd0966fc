#!/usr/bin/env python3
"""Unit tests for reach_census.py's classifier, over canned symbol sets.

  python3 scripts/test_reach_census.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reach_census  # noqa: E402

SHIPPED = "netpart::partition(netpart::CycleEstimator const&)"
ORACLE = "netpart::messages_per_cycle(netpart::Topology, int)"
HELPER = "netpart::pad_left(std::basic_string_view<char>, unsigned long)"
DEAD = "netpart::Logger::set_level(netpart::LogLevel)"


def census(library, shipped=(), tests=(), allowlist=""):
    allowed, errors = reach_census.parse_allowlist(allowlist)
    assert not errors, errors
    return reach_census.classify(set(library), set(shipped), set(tests),
                                 allowed)


class ClassifierTest(unittest.TestCase):
    def test_shipped_function_passes(self):
        c = census({SHIPPED}, shipped={SHIPPED}, tests={SHIPPED})
        self.assertTrue(c.ok)
        self.assertEqual(c.shipped, 1)

    def test_allowlisted_test_only_function_passes(self):
        c = census({SHIPPED, ORACLE}, shipped={SHIPPED}, tests={ORACLE},
                   allowlist=f"{ORACLE} # oracle: topology message count\n")
        self.assertTrue(c.ok)
        self.assertEqual(c.allowlisted, [ORACLE])

    def test_unlisted_test_only_function_fails(self):
        c = census({SHIPPED, HELPER}, shipped={SHIPPED}, tests={HELPER})
        self.assertFalse(c.ok)
        self.assertEqual(c.test_only, [HELPER])
        self.assertIn(f"TEST-ONLY {HELPER}", reach_census.report(c))

    def test_function_nothing_keeps_fails_even_when_allowlisted(self):
        c = census({SHIPPED, DEAD}, shipped={SHIPPED},
                   allowlist=f"{DEAD} # kept for later\n")
        self.assertFalse(c.ok)
        self.assertEqual(c.unreached, [DEAD])
        self.assertIn(f"UNREACHED {DEAD}", reach_census.report(c))

    def test_stale_allowlist_lines_fail(self):
        gone = census({SHIPPED}, shipped={SHIPPED},
                      allowlist=f"{HELPER} # deleted since\n")
        self.assertFalse(gone.ok)
        self.assertEqual(gone.stale, [(HELPER, "no such library function")])
        now_shipped = census({SHIPPED}, shipped={SHIPPED}, tests={SHIPPED},
                             allowlist=f"{SHIPPED} # was test-only\n")
        self.assertFalse(now_shipped.ok)
        self.assertEqual(now_shipped.stale,
                         [(SHIPPED, "a shipped binary keeps it")])
        self.assertIn(f"STALE {SHIPPED}", reach_census.report(now_shipped))


class AllowlistParserTest(unittest.TestCase):
    def test_comments_and_blank_lines_are_skipped(self):
        allowed, errors = reach_census.parse_allowlist(
            f"# header\n\n{ORACLE} # why\n")
        self.assertEqual(errors, [])
        self.assertEqual(allowed, {ORACLE: "why"})

    def test_a_line_without_a_reason_is_an_error(self):
        for text in (f"{ORACLE}\n", f"{ORACLE} # \n"):
            _, errors = reach_census.parse_allowlist(text)
            self.assertEqual(len(errors), 1, text)
            self.assertIn("line 1", errors[0])

    def test_a_function_listed_twice_is_an_error(self):
        _, errors = reach_census.parse_allowlist(
            f"{ORACLE} # one\n{ORACLE} # two\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("listed twice", errors[0])


if __name__ == "__main__":
    unittest.main()
