"""Tests of run.py and steadiness.py that need no build.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

(`python3 e2ebench/run.py --test` runs these and the C++ arithmetic
tests in MathTest.cpp.)
"""

import json
import math
import os
import re
import unittest

import run
import steadiness

ROOT = os.path.dirname(run.HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJson(unittest.TestCase):
    def test_committed_file_matches_definitions(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.assertEqual(json.load(f), run.benchmark_json())

    def test_within_benchmark_json_limits(self):
        b = run.benchmark_json()
        self.assertEqual(sorted(b), ["command", "end_to_end", "paths",
                                     "per_layer", "run_seconds",
                                     "workloads"])
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        names = [w["name"] for w in b["workloads"]] + \
            [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        for w in b["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
        for v in bounds.values():
            self.assertTrue(0 < v <= 0.25)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


def good_result(trace):
    metrics = {n: {"value": 1.5, "unit": u}
               for n, u, *_ in (run.PER_LAYER if trace else run.END_TO_END)}
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": metrics}


class Validate(unittest.TestCase):
    def test_accepts_complete_results(self):
        self.assertIsNone(run.validate(good_result(False), False))
        self.assertIsNone(run.validate(good_result(True), True))

    def test_per_layer_metrics_may_read_zero(self):
        r = good_result(True)
        r["metrics"]["serve.cache_hits"]["value"] = 0
        self.assertIsNone(run.validate(r, True))

    def test_rejects_bad_results(self):
        cases = {
            "missing": lambda r: r["metrics"].pop("setup_s"),
            "extra": lambda r: r["metrics"].update(
                {"x": {"value": 1, "unit": "ms"}}),
            "zero": lambda r: r["metrics"]["latency_p50_ms"].update(
                value=0),
            "unit": lambda r: r["metrics"]["setup_s"].update(unit="ms"),
            "nan": lambda r: r["metrics"]["setup_s"].update(
                value=math.nan),
            "attempted": lambda r: r.update(attempted=0),
            "correct": lambda r: r.pop("correct"),
        }
        for label, spoil in cases.items():
            r = good_result(False)
            spoil(r)
            self.assertIsNotNone(run.validate(r, False), label)
        self.assertIsNotNone(run.validate(good_result(False), True))


class Steadiness(unittest.TestCase):
    def test_spread_is_interquartile_share_of_median(self):
        med, q1, q3, s = steadiness.spread(list(range(1, 11)))
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(s, 1.0)

    def test_worse_shift_follows_direction(self):
        self.assertAlmostEqual(
            steadiness.worse_shift([10, 10], [11, 11], "lower"), 0.1)
        self.assertAlmostEqual(
            steadiness.worse_shift([10, 10], [11, 11], "higher"), -0.1)

    def test_parse_seeds(self):
        self.assertEqual(steadiness.parse_seeds("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()
