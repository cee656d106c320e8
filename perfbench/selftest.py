"""Tests of the benchmark's own grader and self-time arithmetic.

    python3 perfbench/selftest.py

They run no workload and import nothing from cgbv.  The file name does not
match ``test_*.py``, so the repository's test run does not collect it.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
from grading import EXPECTED, grade, item_count  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _exact(scenarios) -> dict:
    return {s: {i: v for i, (v, _) in EXPECTED[s].items()} for s in scenarios}


class GradingTest(unittest.TestCase):
    SCENS = ("cgb-sphere", "zero-set-duality", "discrete-duality")

    def test_exact_values_pass(self):
        self.assertEqual(grade(_exact(self.SCENS), self.SCENS), [])

    def test_nan_fails(self):
        got = _exact(self.SCENS)
        got["cgb-sphere"]["euler-number-s2"] = math.nan
        (fail,) = grade(got, self.SCENS)
        self.assertEqual(fail[:2], ("cgb-sphere", "euler-number-s2"))
        self.assertIn("not finite", fail[2])

    def test_infinity_fails(self):
        got = _exact(self.SCENS)
        got["zero-set-duality"]["zero-count-oracle-gap"] = math.inf
        self.assertEqual(len(grade(got, self.SCENS)), 1)

    def test_missing_item_fails(self):
        got = _exact(self.SCENS)
        del got["zero-set-duality"]["zero-count-square"]
        (fail,) = grade(got, self.SCENS)
        self.assertEqual(fail, ("zero-set-duality", "zero-count-square",
                                "missing"))

    def test_missing_scenario_fails_every_item(self):
        got = _exact(self.SCENS)
        del got["discrete-duality"]
        self.assertEqual(len(grade(got, self.SCENS)), 3)

    def test_over_tolerance_fails_and_at_tolerance_passes(self):
        got = _exact(self.SCENS)
        got["cgb-sphere"]["euler-number-s2"] = 2.0 + 0.5e-8
        self.assertEqual(grade(got, self.SCENS), [])
        got["cgb-sphere"]["euler-number-s2"] = 2.0 + 2e-8
        self.assertEqual(len(grade(got, self.SCENS)), 1)

    def test_discrete_gaps_must_be_exact(self):
        got = _exact(self.SCENS)
        got["discrete-duality"]["betti-reversal-gap"] = 1e-300
        self.assertEqual(len(grade(got, self.SCENS)), 1)

    def test_workloads_partition_the_61_items(self):
        names = [s for w in WORKLOADS.values() for s in w.scenarios]
        self.assertEqual(sorted(names), sorted(EXPECTED))
        self.assertEqual(item_count(names), 61)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c
        # [2, 3]; b has overlapping children d [5, 7] and e [6, 8]
        parents = [-1, 0, 1, 0, 3, 3]
        starts = [0.0, 1.0, 2.0, 5.0, 5.0, 6.0]
        ends = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0]
        own = spans.self_times(parents, starts, ends)
        self.assertEqual(own, [3.0, 2.0, 1.0, 1.0, 2.0, 2.0])

    def test_child_clipped_to_parent(self):
        own = spans.self_times([-1, 0], [0.0, 1.0], [2.0, 5.0])
        self.assertEqual(own[0], 1.0)

    def test_tracer_records_nesting_and_saves(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))

        def inner():
            return 7

        wrapped_inner = tracer.timed("inner", inner)
        outer = tracer.timed("outer", lambda: wrapped_inner() + wrapped_inner())
        self.assertEqual(outer(), 14)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.spans")
            tracer.save(path)
            summary = spans.summarize(spans.load(path))
        # outer [0, 5], inner [1, 2] and [3, 4]
        self.assertEqual(summary["outer"], {"count": 1, "total_s": 5.0,
                                            "self_s": 3.0})
        self.assertEqual(summary["inner"], {"count": 2, "total_s": 2.0,
                                            "self_s": 2.0})


if __name__ == "__main__":
    unittest.main()
