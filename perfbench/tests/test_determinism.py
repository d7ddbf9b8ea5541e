"""Determinism self-check of the sim workloads.

At a small size and a fixed seed, each sim workload runs twice untraced and
once traced; the radio.*, engine.*, maint.*, bus.cq.* and agg.* counters of
the timed phase must be identical across all three runs — the traced run's
decorators change nothing the system can observe.

Run from the repository root (builds the driver first, as run.py does):
    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
import run  # noqa: E402

PREFIXES = ("radio.", "engine.", "maint.", "bus.cq.", "agg.")


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def counts(self, workload, size, trace):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "counts.json")
            subprocess.run(
                [self.binary, "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--passes", "1", "--size", str(size),
                 "--trace", str(trace), "--out-dir", d, "--counts-out", path],
                check=True, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=300)
            with open(path) as f:
                return json.load(f)

    def check(self, workload, size, must_move):
        first = self.counts(workload, size, 0)
        second = self.counts(workload, size, 0)
        traced = self.counts(workload, size, 1)
        self.assertTrue(all(k.startswith(PREFIXES) for k in first))
        for name in must_move:
            self.assertGreater(first.get(name, 0), 0, name)
        self.assertEqual(first, second)
        self.assertEqual(first, traced)

    def test_grid_flood(self):
        self.check("grid_flood", 30, ["radio.tx", "engine.store"])

    def test_grid_churn(self):
        self.check("grid_churn", 30,
                   ["radio.tx", "maint.retract_started", "maint.probe_tx"])

    def test_app_query(self):
        self.check("app_query", 40, ["radio.tx", "agg.fold", "bus.cq.evals"])


if __name__ == "__main__":
    unittest.main()
