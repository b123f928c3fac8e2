#!/usr/bin/env python3
"""Tests of perf_gate's comparison on canned perfbench result lines.

    python3 tools/perf_gate_test.py

Runs no benchmark: each case builds the JSON lines perfbench prints and
feeds them, paired, to perf_gate.compare under the repository's own
BENCHMARK.json.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402

with open(os.path.join(perf_gate.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Five runs around 10.0 whose IQR / median is 0.01.
TIGHT = [9.9, 10.0, 10.0, 10.1, 10.1]


def runs(values=TIGHT, metric=None, correct=True, failed=(0,) * 5):
    """One run per value, as the gate parses them; every workload gets the
    same runs. `metric` takes the values, every other metric reads 10."""
    parsed = []
    for value, fail in zip(values, failed):
        metrics = {m["name"]: {"value": value if m["name"] == metric
                               else 10.0, "unit": m["unit"]}
                   for m in BENCH["end_to_end"]}
        line = json.dumps({"correct": correct, "attempted": 100,
                           "failed": fail, "metrics": metrics})
        parsed.append((0, perf_gate.parse_result("stamp line\n" + line)))
    return {w: parsed for w in WORKLOADS}


class CompareTest(unittest.TestCase):
    def judge(self, base, head, metric):
        rows, problems, code = perf_gate.compare(BENCH, base, head)
        self.assertEqual(problems, [])
        return {r["verdict"] for r in rows if r["metric"] == metric}, code

    def test_clean_pairs_pass(self):
        rows, problems, code = perf_gate.compare(BENCH, runs(), runs())
        self.assertEqual((problems, code), ([], 0))
        self.assertEqual(len(rows), len(WORKLOADS) * len(BENCH["end_to_end"]))
        self.assertEqual({r["verdict"] for r in rows}, {"ok"})

    def test_wrong_answers_fail(self):
        for head, bad_runs in ((runs(correct=False), 5),
                               (runs(failed=(0, 0, 1, 0, 0)), 1)):
            _, problems, code = perf_gate.compare(BENCH, runs(), head)
            self.assertEqual(code, 1)
            self.assertEqual(len(problems), bad_runs * len(WORKLOADS))

    def test_latency_rise_with_tight_base_regresses(self):
        self.assertEqual(
            self.judge(runs(TIGHT, "query_p50_ms"),
                       runs([v * 1.3 for v in TIGHT], "query_p50_ms"),
                       "query_p50_ms"), ({"regressed"}, 1))

    def test_latency_rise_with_wide_base_is_unresolved(self):
        # IQR / median = (15 - 10) / 10 = 0.5, wider than the 0.2 bound,
        # and one head run reads better than a base run.
        base = runs([5.0, 10.0, 10.0, 15.0, 20.0], "query_p50_ms")
        head = runs([9.0, 13.0, 13.0, 13.0, 13.0], "query_p50_ms")
        rows, _, _ = perf_gate.compare(BENCH, base, head)
        self.assertEqual({r["spread"] for r in rows
                          if r["metric"] == "query_p50_ms"}, {0.5})
        self.assertEqual(self.judge(base, head, "query_p50_ms"),
                         ({"unresolved"}, 0))

    def test_throughput_drop_regresses_and_rise_is_ok(self):
        base = runs(TIGHT, "throughput_qps")
        for factor, want in ((0.7, ({"regressed"}, 1)), (1.3, ({"ok"}, 0))):
            head = runs([v * factor for v in TIGHT], "throughput_qps")
            self.assertEqual(self.judge(base, head, "throughput_qps"), want)

    def test_output_without_a_result_line(self):
        self.assertIsNone(perf_gate.parse_result(""))
        self.assertIsNone(perf_gate.parse_result("build failed\n"))


if __name__ == "__main__":
    unittest.main()
