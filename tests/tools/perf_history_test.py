#!/usr/bin/env python3
"""Tests for tools/perf_history.py — the perf-trajectory summariser.

Run directly or via ctest (`ctest -L perf`).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
TOOL = os.path.join(REPO, "tools", "perf_history.py")


def run_log(wall_s, steal="0.0100", nproc=4, correct=True, failed=0):
    """A saved perfbench stdout: build noise, host lines, the result."""
    result = {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": 14.0, "unit": "MB"},
        },
    }
    return (
        "[100%] Built target perfbench\n"
        f"host nproc={nproc} loadavg=0.5 0.5 0.5\n"
        f"host nproc={nproc} loadavg=0.5 0.5 0.5 steal_share={steal}\n"
        f"wall_s = {wall_s} s\n" + json.dumps(result) + "\n")


class PerfHistoryTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, text):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def run_tool(self, logs, seeds):
        proc = subprocess.run(
            [sys.executable, TOOL, "--workload", "fleet_16k_mixed",
             "--commit", "abc1234", "--side", "parent", "--seconds", "15",
             "--seeds", seeds, *logs],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def test_medians_and_host_fields(self):
        logs = [self.write("a.log", run_log(1.0, steal="0.02")),
                self.write("b.log", run_log(3.0, steal="0.00")),
                self.write("c.log", run_log(2.0, steal="0.01", failed=1))]
        code, out, err = self.run_tool(logs, "1,2,3")
        self.assertEqual(code, 0, err)
        line = json.loads(out)
        self.assertEqual(line["median"]["wall_s"], 2.0)
        self.assertEqual(line["median"]["peak_rss_mb"], 14.0)
        self.assertEqual(line["steal_share"], 0.01)
        self.assertEqual(line["nproc"], 4)
        self.assertEqual(line["runs"], 3)
        self.assertEqual(line["seeds"], [1, 2, 3])
        self.assertEqual(line["failed"], 1)
        self.assertTrue(line["correct"])
        self.assertEqual(line["commit"], "abc1234")
        self.assertEqual(out.count("\n"), 1)  # one JSONL line

    def test_an_incorrect_run_marks_the_line(self):
        logs = [self.write("a.log", run_log(1.0)),
                self.write("b.log", run_log(1.0, correct=False))]
        code, out, _ = self.run_tool(logs, "1,2")
        self.assertEqual(code, 0)
        self.assertFalse(json.loads(out)["correct"])

    def test_bad_inputs_exit_2(self):
        good = self.write("good.log", run_log(1.0))
        no_result = self.write("nores.log", "host nproc=4 x steal_share=0\n")
        no_host = self.write("nohost.log", json.dumps(
            {"correct": True, "metrics": {}}) + "\n")
        other_box = self.write("other.log", run_log(1.0, nproc=8))
        for logs, seeds in (([no_result], "1"), ([no_host], "1"),
                            ([good, other_box], "1,2"), ([good], "1,2")):
            code, _, err = self.run_tool(logs, seeds)
            self.assertEqual(code, 2, (logs, err))


if __name__ == "__main__":
    unittest.main()
