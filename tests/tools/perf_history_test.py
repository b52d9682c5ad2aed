#!/usr/bin/env python3
"""Tests for tools/perf_history.py — the paired perf gate, the ledger
summary and the trajectory.

The gate runs fake benches: small scripts that write bench_perf_kernels
JSON, with a deterministic per-run jitter, so every case runs in seconds.

Run directly or via ctest (`ctest -L perf`).  ctest runs GateTest and
the other classes as two entries (tests/CMakeLists.txt), so a new class
must join one of them there.
"""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
TOOL = os.path.join(REPO, "tools", "perf_history.py")
sys.path.insert(0, os.path.dirname(TOOL))
import perf_history  # noqa: E402

KERNELS = {"bti.trap_ensemble.evolve": 2000.0, "mc.sched.decide": 260.0,
           "bti.batch.evolve": 2300.0}
SCALARS = {"chip5_campaign_wall_ms": 2000.0, "margin_single_us": 1.2,
           "timer_scope_ns": 85.0, "clock_pair_ns": 70.0,
           "population_speedup_exact": 270.0}

# A fake bench: counts its runs in a file shared by both sides (so it
# knows whether it runs first or second in a pair), logs its side, and
# writes `doc` with every timing scaled by a +-3% jitter, by `slow` per
# row, and by `second` when it runs second in a pair.
FAKE = """\
import json, sys
cfg = json.loads({cfg!r})
counter = cfg["dir"] + "/runs"
try:
    n = int(open(counter).read()) + 1
except OSError:
    n = 1
open(counter, "w").write(str(n))
open(cfg["dir"] + "/order", "a").write(cfg["side"] + "\\n")
if cfg["raw"] is not None:
    open(sys.argv[2], "w").write(cfg["raw"])
    sys.exit(0)
scale = (1.0 + 0.03 * ((n * 7919) % 11 - 5) / 5) * (
    cfg["second"] if n % 2 == 0 else 1.0)
def timed(name, value):
    if name == "population_speedup_exact":
        return value
    return value * scale * cfg["slow"].get(name, 1.0)
doc = {{"kernels": [{{"name": k, "ns_per_call": timed(k, v)}}
                    for k, v in cfg["kernels"].items()]}}
doc.update({{k: timed(k, v) for k, v in cfg["scalars"].items()}})
json.dump(doc, open(sys.argv[2], "w"))
"""


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


class ToolTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, text):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def run_tool(self, *argv):
        proc = subprocess.run([sys.executable, TOOL, *argv],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr


class GateTest(ToolTest):
    def fake(self, side, slow=None, second=1.0, raw=None, kernels=None,
             scalars=None):
        cfg = {"dir": self.dir.name, "side": side, "slow": slow or {},
               "second": second, "raw": raw,
               "kernels": KERNELS if kernels is None else kernels,
               "scalars": dict(SCALARS, **(scalars or {}))}
        path = self.write(side, f"#!{sys.executable}\n" + FAKE.format(cfg=json.dumps(cfg)))
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def gate(self, parent, change):
        return self.run_tool("gate", parent, change,
                             os.path.join(self.dir.name, "out"))

    def verdicts(self, out):
        return {line.split(":")[0]: line.rsplit("-> ", 1)[1]
                for line in out.splitlines()}

    def test_a_a_passes(self):
        # A kernel only one side has is reported, never fatal.
        code, out, err = self.gate(
            self.fake("parent"),
            self.fake("change", kernels=dict(KERNELS, **{"new.kernel": 5.0})))
        self.assertEqual(code, 0, out + err)
        self.assertEqual(self.verdicts(out), {
            "bti.trap_ensemble.evolve": "OK", "mc.sched.decide": "OK",
            "bti.batch.evolve": "OK", "chip5_campaign_wall_ms": "OK",
            "margin_single_us": "OK", "timer_scope_ns": "OK",
            "clock_pair_ns": "recorded", "population_speedup_exact": "OK",
            "new.kernel": "SKIPPED"})
        out_dir = os.path.join(self.dir.name, "out")
        self.assertEqual(len(os.listdir(out_dir)), 4 * perf_history.PAIRS)

    def test_one_row_1_3x_slower_fails(self):
        code, out, err = self.gate(
            self.fake("parent"),
            self.fake("change", slow={"mc.sched.decide": 1.3}))
        self.assertEqual(code, 1, out + err)
        verdicts = self.verdicts(out)
        self.assertEqual(verdicts.pop("mc.sched.decide"), "REGRESSION")
        self.assertNotIn("REGRESSION", verdicts.values())

    def test_pairs_alternate_which_side_runs_first(self):
        # Whatever runs second in a pair reads 1.5x: a gate that always ran
        # the change second would call that a regression on every row.
        code, out, err = self.gate(self.fake("parent", second=1.5),
                                   self.fake("change", second=1.5))
        self.assertEqual(code, 0, out + err)
        with open(os.path.join(self.dir.name, "order")) as f:
            order = f.read().split()
        first = ["parent", "change"] * perf_history.PAIRS
        self.assertEqual(order[0::2], first[:perf_history.PAIRS])

    def test_speedup_floor_fails_below_50(self):
        code, out, _ = self.gate(self.fake("parent"), self.fake(
            "change", scalars={"population_speedup_exact": 49.9}))
        self.assertEqual(code, 1, out)
        self.assertEqual(self.verdicts(out)["population_speedup_exact"],
                         "REGRESSION")
        code, out, _ = self.gate(self.fake("parent"), self.fake(
            "change", scalars={"population_speedup_exact": 50.0}))
        self.assertEqual(code, 0, out)

    def test_nan_or_zero_parent_row_fails(self):
        for bad in ({"change": {"margin_single_us": float("nan")}},
                    {"parent": {"margin_single_us": 0.0}}):
            code, out, _ = self.gate(
                self.fake("parent", scalars=bad.get("parent")),
                self.fake("change", scalars=bad.get("change")))
            self.assertEqual(code, 1, out)
            self.assertIn("margin_single_us: parent", out)
            self.assertEqual(self.verdicts(out)["margin_single_us"],
                             "REGRESSION")

    def test_missing_primary_exits_2(self):
        no_primary = {"mc.sched.decide": 260.0}
        for parent, change in (
                (self.fake("parent"), self.fake("change", kernels=no_primary)),
                (self.fake("parent", kernels=no_primary), self.fake("change"))):
            code, _, err = self.gate(parent, change)
            self.assertEqual(code, 2, err)
            self.assertIn(perf_history.PRIMARY, err)

    def test_malformed_json_and_broken_benches_exit_2(self):
        failing = self.write("failing", f"#!{sys.executable}\nraise SystemExit(1)\n")
        os.chmod(failing, 0o755)
        missing = os.path.join(self.dir.name, "nope")
        for change in (self.fake("change", raw="{not json at all"),
                       self.fake("change", raw="[]"), failing, missing):
            code, _, err = self.gate(self.fake("parent"), change)
            self.assertEqual(code, 2, (change, err))
            self.assertNotIn("Traceback", err)
        for argv in ((), ("gate", self.fake("parent")),
                     ("gate", "a", "b", "c", "extra")):
            code, _, err = self.run_tool(*argv)
            self.assertEqual(code, 2, (argv, err))

    def test_median_at_the_limit_passes(self):
        limit = 1.0 + perf_history.THRESHOLD
        parent = [{"row": 100.0}] * perf_history.PAIRS
        at = [{"row": 100.0 * limit}] * perf_history.PAIRS
        self.assertFalse(perf_history.judge(parent, at)[1])
        beyond = [{"row": 100.0 * limit * 1.001}] * perf_history.PAIRS
        self.assertTrue(perf_history.judge(parent, beyond)[1])


class SummaryTest(ToolTest):
    def summarize(self, logs, seeds):
        return self.run_tool("--workload", "fleet_16k_mixed", "--commit",
                             "abc1234", "--seconds", "15", "--seeds", seeds,
                             *logs)

    def test_medians_ratios_and_host_fields(self):
        logs = [self.write("p1.log", run_log(1.0, steal="0.02")),
                self.write("c1.log", run_log(0.5, steal="0.00")),
                self.write("p2.log", run_log(3.0, steal="0.01", failed=1)),
                self.write("c2.log", run_log(2.7, steal="0.01")),
                self.write("p3.log", run_log(2.0, steal="0.00")),
                self.write("c3.log", run_log(1.6, steal="0.03", failed=2))]
        code, out, err = self.summarize(logs, "1,2,3")
        self.assertEqual(code, 0, err)
        line = json.loads(out)
        self.assertEqual(line["median"]["parent"]["wall_s"], 2.0)
        self.assertEqual(line["median"]["change"]["wall_s"], 1.6)
        self.assertAlmostEqual(line["ratio"]["wall_s"], 0.8)
        self.assertEqual(line["ratio"]["peak_rss_mb"], 1.0)
        self.assertEqual(line["steal_share"], 0.01)
        self.assertEqual(line["nproc"], 4)
        self.assertEqual(line["pairs"], 3)
        self.assertEqual(line["seeds"], [1, 2, 3])
        self.assertEqual(line["failed"], {"parent": 1, "change": 2})
        self.assertTrue(line["correct"])
        self.assertEqual(line["commit"], "abc1234")
        self.assertEqual(out.count("\n"), 1)  # one JSONL line

    def test_wins_and_spreads(self):
        # wall_s: the change reads lower in pairs 1 and 3 and ties pair 2.
        # Parent 1..4 has quartiles 1.25 and 3.75 (exclusive method) around
        # a median of 2.5; the change's constant peak_rss_mb has no spread.
        parent = [1.0, 2.0, 3.0, 4.0]
        change = [0.5, 2.0, 2.0, 5.0]
        logs = []
        for p, c in zip(parent, change):
            logs += [self.write(f"p{p}.log", run_log(p)),
                     self.write(f"c{c}-{p}.log", run_log(c))]
        code, out, err = self.summarize(logs, "1,2,3,4")
        self.assertEqual(code, 0, err)
        line = json.loads(out)
        self.assertEqual(line["wins"], {"wall_s": 2, "peak_rss_mb": 0})
        self.assertAlmostEqual(line["spread"]["parent"]["wall_s"], 1.0)
        self.assertEqual(line["spread"]["change"]["peak_rss_mb"], 0.0)
        # One pair: no spread on either side.
        code, out, _ = self.summarize(logs[:2], "1")
        self.assertEqual(json.loads(out)["spread"]["parent"]["wall_s"], 0.0)

    def test_an_incorrect_run_marks_the_line(self):
        logs = [self.write("a.log", run_log(1.0)),
                self.write("b.log", run_log(1.0, correct=False))]
        code, out, _ = self.summarize(logs, "1")
        self.assertEqual(code, 0)
        self.assertFalse(json.loads(out)["correct"])

    def test_bad_inputs_exit_2(self):
        good = self.write("good.log", run_log(1.0))
        no_result = self.write("nores.log", "host nproc=4 x steal_share=0\n")
        no_host = self.write("nohost.log", json.dumps(
            {"correct": True, "metrics": {}}) + "\n")
        other_box = self.write("other.log", run_log(1.0, nproc=8))
        for logs, seeds in (([good, no_result], "1"), ([no_host, good], "1"),
                            ([good, other_box], "1"), ([good], "1"),
                            ([good, good], "1,2")):
            code, _, err = self.summarize(logs, seeds)
            self.assertEqual(code, 2, (logs, err))


class TrajectoryTest(ToolTest):
    def test_ratios_and_running_products(self):
        def side(commit, side, wall):
            return json.dumps({"workload": "w", "commit": commit,
                               "side": side, "median": {"wall_s": wall}})
        history = self.write("history.jsonl", "\n".join([
            side("aaaaaaa1", "parent", 2.0), side("aaaaaaa1", "change", 1.0),
            side("bbbbbbb2", "parent", 4.0),
            json.dumps({"workload": "v", "commit": "ccccccc3",
                        "ratio": {"wall_s": 3.0}}),
            side("bbbbbbb2", "change", 3.0),
            json.dumps({"workload": "w", "commit": "ddddddd4",
                        "ratio": {"wall_s": 0.5}})]) + "\n")
        code, out, err = self.run_tool("trajectory", history)
        self.assertEqual(code, 0, err)
        self.assertEqual(out.splitlines(), [
            "w aaaaaaa  wall_s 0.500 x0.500",
            "v ccccccc  wall_s 3.000 x3.000",
            "w bbbbbbb  wall_s 0.750 x0.375",
            "w ddddddd  wall_s 0.500 x0.188"])

    def test_the_ledger_prints_every_pair(self):
        # The ledger is append-only: its first 22 pairs are pinned by
        # position, and every pair appended after them only has to print
        # as a well-formed row of positive ratios.
        code, out, err = self.run_tool("trajectory")
        self.assertEqual(code, 0, err)
        lines = out.splitlines()
        self.assertGreaterEqual(len(lines), 22)
        self.assertEqual(len({line.split()[1] for line in lines[:22]}), 8)
        self.assertIn("fleet_16k_mixed 2561a89 ", lines[2])
        self.assertIn("wall_s 0.606 ", lines[2])
        self.assertIn("fleet_16k_mixed a84b82d ", lines[5])
        self.assertIn("wall_s 0.702 ", lines[5])
        self.assertIn("population_batch c8c1fcb ", lines[18])
        self.assertIn("wall_s 0.312 ", lines[18])
        # The first paired-ratio lines: one per workload.
        self.assertIn("table1_campaign ec44988 ", lines[19])
        self.assertIn("wall_s 0.619 ", lines[19])
        self.assertIn("population_batch ec44988 ", lines[20])
        self.assertIn("wall_s 0.608 ", lines[20])
        self.assertIn("fleet_16k_mixed ec44988 ", lines[21])
        for line in lines[22:]:
            _, commit, *cells = line.split()
            self.assertRegex(commit, r"^[0-9a-f]{7}$", line)
            self.assertTrue(cells and len(cells) % 3 == 0, line)
            for ratio, product in zip(cells[1::3], cells[2::3]):
                self.assertGreater(float(ratio), 0.0, line)
                self.assertGreater(float(product.removeprefix("x")), 0.0,
                                   line)

if __name__ == "__main__":
    unittest.main()
