#!/usr/bin/env python3
"""Smoke test of the benchmark's own code.

    python3 perfbench/smoke_test.py

Builds perfbench through run.py, then runs the cycle_sync workload for
its minimum of two passes three times (about 30 s on 4 cores) and
checks that:
  - the result object has exactly the keys correct/attempted/failed/
    metrics, and every metric is a number;
  - the end-to-end (--trace 0) and per-layer (--trace 1) metric names
    equal those declared in BENCHMARK.json, so run.py can give each its
    declared unit;
  - the traced run writes a Chrome trace whose spans carry the fields
    the per-layer numbers are computed from;
  - an injected one-pixel mismatch lowers pass_frac, counts as a failed
    op and makes the run incorrect.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build helper)

WORKLOAD = "cycle_sync"
TRACE_FILE = os.path.join(run.BUILD_DIR, "smoke-trace.json")


def perfbench(trace, *extra):
    """Run the binary for its minimum number of passes; return the
    result object (the last line of stdout)."""
    cmd = [run.BINARY, "--workload", WORKLOAD, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         check=True, cwd=run.ROOT).stdout
    return json.loads(out.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.clean = perfbench(0)
        cls.traced = perfbench(1, "--trace-out", TRACE_FILE)
        cls.injected = perfbench(0, "--inject-mismatch")

    def assert_metrics(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for v in result["metrics"].values():
            self.assertIsInstance(v, (int, float))
        trace = declared is self.spec["per_layer"]
        units = run.attach_units(result["metrics"], trace)
        self.assertEqual([(k, v["unit"]) for k, v in units.items()],
                         [(m["name"], m["unit"]) for m in declared])

    def test_end_to_end_names_match_benchmark_json(self):
        self.assert_metrics(self.clean, self.spec["end_to_end"])
        self.assertTrue(self.clean["correct"])
        self.assertEqual(self.clean["failed"], 0)
        self.assertEqual(self.clean["metrics"]["pass_frac"], 1)

    def test_per_layer_names_match_benchmark_json(self):
        self.assert_metrics(self.traced, self.spec["per_layer"])
        self.assertGreater(self.traced["metrics"]["sim.host_s"], 0)

    def test_attach_units_rejects_unknown_names(self):
        values = dict(self.clean["metrics"], not_declared=1.0)
        with self.assertRaises(ValueError):
            run.attach_units(values, False)
        del values["not_declared"], values["cpu_s"]
        with self.assertRaises(ValueError):
            run.attach_units(values, False)

    def test_trace_has_nested_layer_spans(self):
        with open(TRACE_FILE) as f:
            events = json.load(f)["traceEvents"]
        sims = [e for e in events if e["cat"] == "sim"]
        self.assertEqual(len(sims), 1)  # Histogram, traced in one pass
        for e in sims:
            parent = events[e["args"]["parent"]]
            self.assertEqual(parent["cat"], "op")
            self.assertEqual(parent["args"]["op"], e["args"]["op"])
            self.assertGreaterEqual(e["ts"], parent["ts"])

    def test_injected_mismatch_counts_as_failure(self):
        bad = self.injected
        self.assertFalse(bad["correct"])
        self.assertGreaterEqual(bad["failed"], 1)
        self.assertLess(bad["metrics"]["pass_frac"],
                        self.clean["metrics"]["pass_frac"])


if __name__ == "__main__":
    unittest.main()
