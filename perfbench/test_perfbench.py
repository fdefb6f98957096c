#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

The op-stream test builds perfbench_gen (see run.py) if it is not built yet.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        # op [0, 100): children [0, 10), [10, 40), [30, 50) overlap, and
        # [90, 120) sticks out of the parent. Covered: [0, 50) + [90, 100).
        spans = {
            1: (0, 0, 100),
            2: (1, 0, 10),
            3: (1, 10, 40),
            4: (1, 30, 50),
            5: (1, 90, 120),
            6: (3, 15, 20),  # grandchild: counts against 3, not 1
        }
        selfs = run.self_times(spans)
        self.assertEqual(selfs[1], 100 - 50 - 10)
        self.assertEqual(selfs[2], 10)
        self.assertEqual(selfs[3], 30 - 5)
        self.assertEqual(selfs[6], 5)

    def test_tiled_op_has_zero_self_time(self):
        spans = {8: (0, 0, 40), 9: (8, 0, 5), 10: (8, 5, 6), 11: (8, 6, 39),
                 12: (8, 39, 40)}
        self.assertEqual(run.self_times(spans)[8], 0)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_names_and_units(self):
        path = os.path.join(run.HERE, "..", "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        names = [w["name"] for w in bench["workloads"]]
        for section in ("end_to_end", "per_layer"):
            for m in bench[section]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT)
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.WORKLOADS))


class Scrapes(unittest.TestCase):
    def test_histogram_mean_and_p99(self):
        def snap(counts, total, n):
            out = {("pocc_server_op_us_sum", 'op="get"'): total,
                   ("pocc_server_op_us_count", 'op="get"'): n}
            for le, c in counts:
                out[("pocc_server_op_us_bucket", f'op="get",le="{le}"')] = c
            return out
        before = snap([("50", 0), ("100", 0), ("+Inf", 0)], 0, 0)
        after = snap([("50", 90), ("100", 100), ("+Inf", 100)], 2500, 100)
        mean, p99 = run.hist_stats([before], [after], "get")
        self.assertAlmostEqual(mean, 25.0)
        self.assertAlmostEqual(p99, 95.0)

    def test_parse_prom(self):
        snap = run.parse_prom('# HELP x\npocc_a_total 3\npocc_b{part="1"} 4\n')
        self.assertEqual(snap[("pocc_a_total", "")], 3.0)
        self.assertEqual(snap[("pocc_b", 'part="1"')], 4.0)


class OpStream(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def dump(self, seed, **kw):
        wl = dict(run.WORKLOADS[kw.get("workload", "durable-large")])
        cmd = [os.path.join(run.BUILD, "perfbench_gen"), "dump",
               "--seed", str(seed), "--pattern", wl["pattern"],
               "--gets-per-put", str(wl["gets_per_put"]),
               "--theta", str(wl["theta"]),
               "--keys-per-partition", str(wl["keys"]),
               "--value-size", str(wl["value"]),
               "--preload-keys", "512", "--dump-ops", "32"]
        return subprocess.run(cmd, check=True, capture_output=True,
                              text=True).stdout

    def test_same_seed_same_ops_and_preload(self):
        for workload in run.WORKLOADS:
            a = self.dump(7, workload=workload)
            self.assertEqual(a, self.dump(7, workload=workload))
            self.assertNotEqual(a, self.dump(8, workload=workload))
            self.assertIn("preload ", a)


if __name__ == "__main__":
    unittest.main()
