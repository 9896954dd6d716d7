"""Tests of the benchmark's pure helpers (benchlib.py).

    python3 -m unittest discover -s perfbench/tests
"""
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import benchlib  # noqa: E402


def report(injections, violations, exploitable, faults=()):
    """A sweep-shaped report: one scenario whose violated injections are
    `faults` ((kind, name) pairs)."""
    return json.dumps({
        "scenarios": [{"injections": [
            {"kind": k, "fault": f, "violated": True} for k, f in faults]}],
        "totals": {"injections": injections, "violations": violations,
                   "exploitable": exploitable}}, indent=1)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(benchlib.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(benchlib.percentile([4, 1, 3, 2], 75), 3)
        self.assertEqual(benchlib.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        hundred = list(range(1, 101))
        self.assertEqual(benchlib.tail_percentile(hundred), (90.0, 90, 10))
        # 99 samples: p90 would have only 9 beyond it.
        self.assertEqual(benchlib.tail_percentile(hundred[:99]),
                         (50.0, 50, 49))
        thousand = list(range(1, 1001))
        self.assertEqual(benchlib.tail_percentile(thousand), (99.0, 990, 10))
        self.assertIsNone(benchlib.tail_percentile(list(range(19))))
        self.assertEqual(benchlib.tail_percentile(list(range(20)))[2], 10)


def span(id_, parent, start, end, name="x.y", request=1):
    return {"id": id_, "parent": parent, "request": request, "name": name,
            "start_us": start, "end_us": end, "thread": 0}


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0, 100),
                 span(2, 1, 10, 40), span(3, 1, 30, 60),  # overlap
                 span(4, 1, 35, 50),                       # nested in both
                 span(5, 1, 90, 120)]                      # sticks out
        own = benchlib.self_times(spans)
        # Covered: [10, 60) and [90, 100) = 60us of the parent's 100us.
        self.assertAlmostEqual(own[1], 40)
        self.assertAlmostEqual(own[2], 30)
        self.assertAlmostEqual(own[5], 30)

    def test_childless_and_grandchildren(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 2, 8), span(3, 2, 3, 5)]
        own = benchlib.self_times(spans)
        self.assertEqual((own[1], own[2], own[3]), (4, 4, 2))

    def test_layer_totals_are_per_request(self):
        spans = [span(1, 0, 0, 10, "request", 1),
                 span(2, 1, 0, 4, "planner.plan", 1),
                 span(3, 0, 0, 10, "request", 2),
                 span(4, 3, 0, 6, "planner.plan", 2)]
        self.assertEqual(benchlib.layer_self_times(spans),
                         {"planner": 5.0, "request": 5.0})


class CorrectnessTest(unittest.TestCase):
    PINNED = {"injections": 509, "violations": 109, "exploitable": 66}

    def test_corrupted_reference_fails_every_request(self):
        out = report(509, 109, 66)
        corrupted = out.replace("109", "110")
        ok = not benchlib.pinned_mismatches(out, self.PINNED)
        self.assertTrue(ok)
        good = [benchlib.request_ok(3, out, out, ok) for _ in range(5)]
        bad = [benchlib.request_ok(3, out, corrupted, ok) for _ in range(5)]
        self.assertEqual(benchlib.fail_ratio(good), 0.0)
        self.assertEqual(benchlib.fail_ratio(bad), 1.0)
        self.assertEqual(benchlib.fail_ratio(good[:3] + bad[:1]), 0.25)

    def test_exit_code_and_pinned_totals(self):
        out = report(509, 109, 66)
        self.assertTrue(benchlib.request_ok(0, out, out, True))
        self.assertFalse(benchlib.request_ok(1, out, out, True))
        self.assertFalse(benchlib.request_ok(-9, out, out, True))
        drifted = report(509, 108, 66)
        self.assertEqual(benchlib.pinned_mismatches(drifted, self.PINNED),
                         ["violations"])
        self.assertEqual(benchlib.pinned_mismatches("not json", self.PINNED),
                         sorted(self.PINNED))
        # A reference off the pinned totals fails even identical output.
        self.assertFalse(benchlib.request_ok(3, drifted, drifted, False))
        with self.assertRaises(ValueError):
            benchlib.fail_ratio([])

    def test_fired_classes(self):
        class_map = {"direct:file-existence": "attribute: file existence",
                     "indirect:change-length": "cause: user input",
                     "direct:unclassified": ""}
        out = report(3, 3, 0, [("direct", "file-existence"),
                               ("indirect", "change-length"),
                               ("direct", "unclassified")])
        self.assertEqual(benchlib.fired_classes(out, class_map),
                         {"attribute: file existence", "cause: user input"})
        self.assertEqual(benchlib.fired_classes("{", class_map), set())


if __name__ == "__main__":
    unittest.main()
