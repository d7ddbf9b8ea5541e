"""Tests of perfbench/compare.py on synthetic result sets.

Run: python3 -m unittest discover -s perfbench/tests
"""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
import compare  # noqa: E402


def runs(values):
    return {seed: v for seed, v in enumerate(values, start=1)}


class VerdictTest(unittest.TestCase):
    def test_clear_gain_is_improved(self):
        base = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        change = runs([90, 91, 89, 90, 92, 88, 90, 91, 89, 90])
        v, wins, pairs = compare.verdict(base, change, "lower", 0.1)
        self.assertEqual((v, wins, pairs), ("improved", 10, 10))

    def test_direction_higher(self):
        base = runs([100] * 10)
        change = runs([120] * 10)
        self.assertEqual(compare.verdict(base, change, "higher", 0.1)[0],
                         "improved")
        self.assertEqual(compare.verdict(base, change, "lower", 0.1)[0],
                         "regressed")

    def test_worse_beyond_bound_is_regressed(self):
        base = runs([100, 101, 99, 100, 100])
        change = runs([115, 116, 114, 115, 115])
        self.assertEqual(compare.verdict(base, change, "lower", 0.1)[0],
                         "regressed")

    def test_small_move_within_bound_is_unchanged(self):
        base = runs([100, 101, 99, 100, 100])
        change = runs([102, 101, 103, 102, 102])
        self.assertEqual(compare.verdict(base, change, "lower", 0.1)[0],
                         "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        base = runs([60, 140, 80, 120, 100, 70, 130, 90, 110, 100])
        change = runs([65, 135, 85, 115, 105, 75, 125, 95, 105, 100])
        self.assertEqual(compare.verdict(base, change, "lower", 0.1)[0],
                         "unresolved")

    def test_wide_spread_but_every_run_better_is_improved(self):
        base = runs([200, 260, 220, 240, 250])
        change = runs([100, 110, 105, 120, 115])
        self.assertEqual(compare.verdict(base, change, "lower", 0.05)[0],
                         "improved")

    def test_nine_of_ten_wins_needed(self):
        base = runs([100] * 10)
        change = runs([95] * 8 + [105] * 2)
        v, wins, _ = compare.verdict(base, change, "lower", 0.1)
        self.assertEqual(wins, 8)
        self.assertNotEqual(v, "improved")

    def test_pairs_by_seed_only(self):
        base = {1: 100, 2: 100, 3: 100}
        change = {2: 90, 3: 90, 4: 90}
        _, wins, pairs = compare.verdict(base, change, "lower", 0.1)
        self.assertEqual((wins, pairs), (2, 2))

    def test_per_layer_metric_without_bound(self):
        base = runs([100, 101, 99, 100, 100])
        change = runs([100, 100, 101, 99, 100])
        self.assertEqual(compare.verdict(base, change, "lower", None)[0],
                         "unresolved")


class DiffTest(unittest.TestCase):
    def test_diff_reads_result_sets(self):
        spec = {"end_to_end": [{"name": "round_ms", "unit": "ms",
                                "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "engine.rx_ns", "unit": "ns",
                               "better": "lower"}]}
        with tempfile.TemporaryDirectory() as d:
            spec_path = os.path.join(d, "BENCHMARK.json")
            with open(spec_path, "w") as f:
                json.dump(spec, f)
            paths = []
            for name, scale in (("base", 1.0), ("change", 0.8)):
                path = os.path.join(d, name + ".jsonl")
                with open(path, "w") as f:
                    for seed in range(1, 11):
                        f.write(json.dumps({
                            "workload": "grid_flood", "seed": seed,
                            "correct": True, "attempted": 1, "failed": 0,
                            "metrics": {"round_ms": {
                                "value": scale * (100 + seed % 3),
                                "unit": "ms"}}}) + "\n")
                paths.append(path)
            out = io.StringIO()
            rows = compare.diff(paths[0], paths[1], spec_path, out)
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0][0:2], ("grid_flood", "round_ms"))
        self.assertEqual(rows[0][-1], "improved")
        self.assertIn("improved", out.getvalue())

    def test_parse_seeds(self):
        self.assertEqual(compare.parse_seeds("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()
