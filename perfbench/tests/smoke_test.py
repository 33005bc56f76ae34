#!/usr/bin/env python3
"""Short smoke run of every workload, untraced and traced.

    python3 perfbench/tests/smoke_test.py

Runs perfbench/run.py (which builds the benchmark on first use) for one
second per workload and mode, and checks that every metric BENCHMARK.json
names for that mode is printed, by name and with its unit, both as a
`metric <name> <value> <unit>` report line and in the final JSON line; that
the provenance line carries the resolved thread count; and that the oracle
gate and the error rate are reported and clean.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("run.py failed for %s:\n%s" %
                             (workload, proc.stderr[-4000:]))
    return proc.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):

    def check(self, workload, trace):
        lines = run(workload, trace)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

        wanted = SPEC["per_layer" if trace else "end_to_end"]
        printed = {}
        for line in lines[:-1]:
            m = re.match(r"metric (\S+) (\S+) (\S+)$", line)
            if m:
                printed[m.group(1)] = (float(m.group(2)), m.group(3))
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            name, unit = metric["name"], metric["unit"]
            self.assertIn(name, printed, workload)
            self.assertEqual(printed[name][1], unit, name)
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertEqual(result["metrics"][name]["value"],
                             printed[name][0], name)
        if not trace:
            for name in ("setup_s", "latency_p50_ms", "throughput_qps"):
                self.assertGreater(printed[name][0], 0, name)

        text = "\n".join(lines)
        self.assertRegex(text, r"gate: \d+ .* 0 failed")
        self.assertRegex(text, r"error_rate 0 ratio")
        prov = next(l for l in lines if l.startswith("provenance "))
        prov = json.loads(prov[len("provenance "):])
        for key in ("git_sha", "build_type", "compiler", "nproc",
                    "num_threads", "scale", "clients", "seed"):
            self.assertIn(key, prov)
        self.assertGreaterEqual(prov["num_threads"], 1)
        if trace:
            self.assertRegex(text, r"span trees: \d+ statements, 0 malformed")


def add_cases():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            def case(self, workload=workload, trace=trace):
                self.check(workload, trace)
            setattr(SmokeTest, "test_%s_trace%d" % (workload, trace), case)


add_cases()

if __name__ == "__main__":
    unittest.main()
