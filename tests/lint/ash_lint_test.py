#!/usr/bin/env python3
"""Self-tests for tools/ash_lint.py.

Every rule has fixture cases under tests/lint/fixtures/: a positive case
that must produce that rule's findings, a suppressed case whose violation
carries a full `ash-lint: allow(rule): <reason>` escape, and a clean case
that must produce nothing.  The token rules also have a bare case whose
escape omits the mandatory reason (and therefore still reports).  The
fixtures mirror the repo layout where a rule is path-scoped; the
protocol-exhaustiveness and orphan-header cases are whole mini-repo roots,
since those rules cross-check files across the tree.

Run directly or via ctest (`ctest -L lint`).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "ash_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

# rule -> (fixture root, path scanned under it, minimum positive findings);
# `{case}` is positive / suppressed / bare / clean.
CASES = {
    "wall-clock": ("wall_clock", "{case}.cpp", 1),
    "rng": ("rng", "{case}.cpp", 1),
    "unordered-iter": ("unordered_iter", "{case}.cpp", 1),
    "float-physics": ("float_physics", "src/bti/{case}.cpp", 1),
    "raw-double-api": ("raw_double_api", "src/bti/include/{case}.h", 1),
    "unchecked-io": ("unchecked_io", "{case}.cpp", 1),
    "eintr": ("eintr", "src/fleet/{case}.cpp", 1),
    "metric-name": ("metric_name", "{case}.cpp", 1),
    # std::stod + strtoull + atoi + std::istringstream.
    "lenient-parse": ("lenient_parse", "src/tb/{case}.cpp", 4),
    # printf via a callee plus operator new in the handler itself.
    "signal-safety": ("signal_safety", "{case}.cpp", 2),
    # static local + file-scope global + non-util RNG.
    "shard-purity": ("shard_purity", "{case}.cpp", 3),
    # a header only tests/examples/its .cpp include + one only it includes.
    "orphan-header": ("orphan_header/{case}", "src", 2),
    # double member + vector<double> member + double return.
    "unit-flow": ("unit_flow", "src/{case}.h", 3),
    # an enumerator without a codec + a violation without a test.
    "protocol-exhaustiveness": ("protocol_exhaustiveness/{case}", "src", 2),
}

# The declaration rules share the token rules' suppression parser; their
# fixtures carry no bare case.
WITHOUT_BARE_CASE = {"signal-safety", "shard-purity", "orphan-header",
                     "unit-flow", "protocol-exhaustiveness"}


def run_lint(root, paths, rule=None):
    cmd = [sys.executable, LINT, "--root", root, "--json"]
    if rule:
        cmd += ["--rule", rule]
    cmd += list(paths)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        raise AssertionError(
            f"ash_lint did not emit JSON: {err}\n"
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}")
    return proc.returncode, payload


def run_cli(*args):
    return subprocess.run([sys.executable, LINT, *args],
                          capture_output=True, text=True)


class AshLintFixtureTest(unittest.TestCase):
    def run_case(self, rule, case):
        root, path, _ = CASES[rule]
        root = os.path.join(FIXTURES, root.format(case=case))
        path = path.format(case=case)
        self.assertTrue(os.path.exists(os.path.join(root, path)),
                        f"missing fixture {root}/{path}")
        return run_lint(root, [path], rule)

    def check(self, rule, case, want_findings, want_suppressed):
        code, payload = self.run_case(rule, case)
        findings = payload["findings"]
        self.assertEqual(
            len(findings) > 0, want_findings,
            f"{rule}/{case}: findings = {findings}")
        self.assertEqual(
            payload["suppressed"] > 0, want_suppressed,
            f"{rule}/{case}: suppressed = {payload['suppressed']}")
        self.assertEqual(code, 1 if want_findings else 0,
                         f"{rule}/{case}: exit code {code}")
        for f in findings:
            self.assertEqual(f["rule"], rule)
            self.assertGreater(f["line"], 0)
            self.assertTrue(f["message"])
        return findings


def _add_cases():
    for rule in CASES:
        safe = rule.replace("-", "_")

        def positive(self, rule=rule):
            findings = self.check(rule, "positive", want_findings=True,
                                  want_suppressed=False)
            self.assertGreaterEqual(len(findings), CASES[rule][2], findings)

        def suppressed(self, rule=rule):
            self.check(rule, "suppressed", want_findings=False,
                       want_suppressed=True)

        def clean(self, rule=rule):
            self.check(rule, "clean", want_findings=False,
                       want_suppressed=False)

        def bare(self, rule=rule):
            # An allow() escape without a `: <reason>` tail does not
            # suppress; the finding it reports names the missing reason.
            findings = self.check(rule, "bare", want_findings=True,
                                  want_suppressed=False)
            self.assertTrue(
                any("carries no reason" in f["message"] for f in findings),
                findings)

        setattr(AshLintFixtureTest, f"test_{safe}_positive", positive)
        setattr(AshLintFixtureTest, f"test_{safe}_suppressed", suppressed)
        setattr(AshLintFixtureTest, f"test_{safe}_clean", clean)
        if rule not in WITHOUT_BARE_CASE:
            setattr(AshLintFixtureTest, f"test_{safe}_bare_allow", bare)


_add_cases()


class AshLintLenientParseScopeTest(unittest.TestCase):
    """lenient-parse polices src/ and examples/, and exempts the text
    reader."""

    def test_reader_and_tools_are_exempt(self):
        root = os.path.join(FIXTURES, "lenient_parse")
        code, payload = run_lint(
            root, ["src/util/text_reader.cpp", "tools/dashboard.cpp"],
            "lenient-parse")
        self.assertEqual(payload["findings"], [])
        self.assertEqual(code, 0)

    def test_example_arguments_are_policed(self):
        root = os.path.join(FIXTURES, "lenient_parse")
        code, payload = run_lint(root, ["examples/cli_args.cpp"],
                                 "lenient-parse")
        self.assertEqual(code, 1)
        self.assertEqual([f["line"] for f in payload["findings"]], [8, 9])

    def test_default_paths_include_examples(self):
        proc = run_cli("--help")
        self.assertEqual(proc.returncode, 0)
        self.assertIn("default: src tools bench tests examples",
                      " ".join(proc.stdout.split()))


class AshLintMetricHotPathTest(unittest.TestCase):
    """The metric-name rule's second half: any registration in an
    instrumented hot-path kernel file is a finding, even a well-named one."""

    def test_hot_kernel_registration(self):
        root = os.path.join(FIXTURES, "metric_name")
        rel = os.path.join("src", "mc", "system.cpp")
        self.assertTrue(os.path.isfile(os.path.join(root, rel)))
        code, payload = run_lint(root, [rel], "metric-name")
        self.assertEqual(code, 1)
        self.assertEqual(len(payload["findings"]), 1)
        self.assertIn("hot-path", payload["findings"][0]["message"])


class AshLintWallClockScopeTest(unittest.TestCase):
    """wall-clock: src/obs owns the one host clock; the fleet layer reads
    it through obs::monotonic_ns, so its own clock read is a finding."""

    def test_fleet_clock_read_is_flagged_obs_is_not(self):
        root = os.path.join(FIXTURES, "wall_clock")
        code, payload = run_lint(
            root, ["src/fleet/deadline.cpp", "src/obs/clock.h"],
            "wall-clock")
        self.assertEqual(code, 1)
        self.assertEqual([f["path"] for f in payload["findings"]],
                         ["src/fleet/deadline.cpp"])
        self.assertIn("obs::monotonic_ns", payload["findings"][0]["message"])


class AshLintApproxExpScopeTest(unittest.TestCase):
    """float-physics' exponential half: an approximate exponential is a
    finding everywhere in scope, and the scope reaches src/util (where one
    would most plausibly appear), not just the physics modules."""

    def test_homebrew_exponential_in_util_is_flagged(self):
        root = os.path.join(FIXTURES, "float_physics")
        rel = os.path.join("src", "util", "homebrew.cpp")
        self.assertTrue(os.path.isfile(os.path.join(root, rel)))
        code, payload = run_lint(root, [rel], "float-physics")
        self.assertEqual(code, 1)
        self.assertEqual(len(payload["findings"]), 1)
        self.assertIn("looks like an approximate exponential",
                      payload["findings"][0]["message"])


class AshLintProtocolTest(unittest.TestCase):
    """protocol-exhaustiveness names each gap it finds, and each escape
    suppresses its own enumerator."""

    def test_positive_names_the_gaps(self):
        root = os.path.join(FIXTURES, "protocol_exhaustiveness", "positive")
        _, payload = run_lint(root, ["src"], "protocol-exhaustiveness")
        messages = [f["message"] for f in payload["findings"]]
        self.assertTrue(any("kEchoResponse" in m and "codec" in m
                            for m in messages), messages)
        self.assertTrue(any("kHostileLength" in m for m in messages),
                        messages)

    def test_suppressed_counts_both_escapes(self):
        root = os.path.join(FIXTURES, "protocol_exhaustiveness",
                            "suppressed")
        _, payload = run_lint(root, ["src"], "protocol-exhaustiveness")
        self.assertEqual(payload["suppressed"], 2, payload)


class AshLintOrphanHeaderTest(unittest.TestCase):
    """orphan-header flags exactly the headers no shipped code includes,
    and reads includes from the whole root, not just the scanned paths."""

    def test_positive_flags_the_orphan_and_its_chain(self):
        root = os.path.join(FIXTURES, "orphan_header", "positive")
        _, payload = run_lint(root, ["src"], "orphan-header")
        self.assertEqual(
            sorted(f["path"] for f in payload["findings"]),
            ["src/util/include/ash/util/chained.h",
             "src/util/include/ash/util/lonely.h"])

    def test_callers_outside_the_scanned_paths_count(self):
        root = os.path.join(FIXTURES, "orphan_header", "positive")
        code, payload = run_lint(
            root, ["src/util/include/ash/util/used.h",
                   "src/util/include/ash/util/bench_only.h"],
            "orphan-header")
        self.assertEqual(payload["findings"], [])
        self.assertEqual(code, 0)


class AshLintRepoTest(unittest.TestCase):
    """The real tree must be finding-free under every rule — CI enforces
    the same."""

    def test_repo_is_clean(self):
        code, payload = run_lint(REPO, ["src", "tools", "bench", "tests",
                                        "examples"])
        self.assertEqual(
            payload["findings"], [],
            "ash_lint findings on the tree:\n" +
            "\n".join(f"{f['path']}:{f['line']}: [{f['rule']}] "
                      f"{f['message']}" for f in payload["findings"]))
        self.assertEqual(code, 0)
        self.assertGreater(payload["files_scanned"], 150)
        # The two reasoned escapes: deliberately torn writes in
        # checkpoint_store_test.
        self.assertEqual(payload["suppressed"], 2)
        # One frontend: the report no longer names it.
        self.assertNotIn("frontend", payload)

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        self.assertEqual(proc.returncode, 0)
        self.assertEqual(
            proc.stdout.split(),
            ["wall-clock", "rng", "unordered-iter", "float-physics",
             "raw-double-api", "unchecked-io", "eintr", "metric-name",
             "lenient-parse", "signal-safety", "shard-purity",
             "orphan-header", "unit-flow", "protocol-exhaustiveness"])


class AshLintExitCodeTest(unittest.TestCase):
    """Exit status contract: 0 clean, 1 findings, 2 usage/internal
    errors — so CI can tell "the tree is dirty" from "the tool is
    broken"."""

    def test_findings_exit_one(self):
        root = os.path.join(FIXTURES, "rng")
        proc = run_cli("--root", root, "positive.cpp")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)

    def test_clean_exit_zero(self):
        root = os.path.join(FIXTURES, "rng")
        proc = run_cli("--root", root, "clean.cpp")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_bad_root_exit_two(self):
        proc = run_cli("--root", "/nonexistent/xyzzy")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("not a directory", proc.stderr)

    def test_missing_path_exit_two(self):
        # A misspelled path next to a real one must not silently shrink
        # coverage to the real one.
        root = os.path.join(FIXTURES, "rng")
        proc = run_cli("--root", root, "clean.cpp", "no_such_subdir")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("no_such_subdir", proc.stderr)

    def test_no_files_matched_exit_two(self):
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src"))
            proc = run_cli("--root", tmp, "src")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("no source files matched", proc.stderr)

    def test_unknown_rule_exit_two(self):
        proc = run_cli("--rule", "bogus")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)

    def test_unreadable_compile_commands_exit_two(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json") as bad:
            bad.write("{ not json")
            bad.flush()
            proc = run_cli("--root", REPO, "--compile-commands", bad.name,
                           "tools")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
