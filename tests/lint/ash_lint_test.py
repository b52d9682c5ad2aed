#!/usr/bin/env python3
"""Self-tests for tools/ash_lint.py.

For every rule there are three fixture cases under tests/lint/fixtures/:
a positive file that must produce exactly that rule's finding, a
suppressed file whose violation carries a full `ash-lint:
allow(rule): <reason>` escape, a bare file whose escape omits the
mandatory reason (and therefore still reports), and a clean file that
must produce nothing.  The fixtures mirror the repo layout where a rule
is path-scoped (float-physics, raw-double-api).

Run directly or via ctest (`ctest -L lint`).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "ash_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

# rule -> (fixture dir, relative path of each case inside the fixture dir)
CASES = {
    "wall-clock": ("wall_clock", ""),
    "rng": ("rng", ""),
    "unordered-iter": ("unordered_iter", ""),
    "float-physics": ("float_physics", "src/bti"),
    "raw-double-api": ("raw_double_api", "src/bti/include"),
    "unchecked-io": ("unchecked_io", ""),
    "eintr": ("eintr", "src/fleet"),
    "metric-name": ("metric_name", ""),
}

HEADER_RULES = {"raw-double-api"}


def run_lint(root, paths, rule):
    cmd = [sys.executable, LINT, "--root", root, "--json", "--rule", rule]
    cmd += paths
    proc = subprocess.run(cmd, capture_output=True, text=True)
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        raise AssertionError(
            f"ash_lint did not emit JSON: {err}\n"
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}")
    return proc.returncode, payload


class AshLintSelfTest(unittest.TestCase):
    def case_path(self, rule, case):
        subdir, scope = CASES[rule]
        ext = ".h" if rule in HEADER_RULES else ".cpp"
        rel = os.path.join(scope, case + ext) if scope else case + ext
        self.assertTrue(
            os.path.isfile(os.path.join(FIXTURES, subdir, rel)),
            f"missing fixture {subdir}/{rel}")
        return os.path.join(FIXTURES, subdir), rel

    def check(self, rule, case, want_findings, want_suppressed):
        root, rel = self.case_path(rule, case)
        code, payload = run_lint(root, [rel], rule)
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


def _add_cases():
    for rule in CASES:
        safe = rule.replace("-", "_")

        def positive(self, rule=rule):
            self.check(rule, "positive", want_findings=True,
                       want_suppressed=False)

        def suppressed(self, rule=rule):
            self.check(rule, "suppressed", want_findings=False,
                       want_suppressed=True)

        def clean(self, rule=rule):
            self.check(rule, "clean", want_findings=False,
                       want_suppressed=False)

        def bare(self, rule=rule):
            # An allow() escape without a `: <reason>` tail does not
            # suppress; the finding it reports names the missing reason.
            root, rel = self.case_path(rule, "bare")
            code, payload = run_lint(root, [rel], rule)
            self.assertEqual(code, 1, payload)
            self.assertGreater(len(payload["findings"]), 0)
            self.assertEqual(payload["suppressed"], 0, payload)
            self.assertTrue(
                any("carries no reason" in f["message"]
                    for f in payload["findings"]), payload)

        setattr(AshLintSelfTest, f"test_{safe}_positive", positive)
        setattr(AshLintSelfTest, f"test_{safe}_suppressed", suppressed)
        setattr(AshLintSelfTest, f"test_{safe}_clean", clean)
        setattr(AshLintSelfTest, f"test_{safe}_bare_allow", bare)


_add_cases()


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


class AshLintRepoTest(unittest.TestCase):
    """The real tree must be finding-free — CI enforces the same."""

    def test_repo_is_clean(self):
        proc = subprocess.run(
            [sys.executable, LINT, "--root", REPO, "--json"],
            capture_output=True, text=True)
        payload = json.loads(proc.stdout)
        self.assertEqual(
            payload["findings"], [],
            "lint findings on the tree:\n" +
            "\n".join(f"{f['path']}:{f['line']}: [{f['rule']}]"
                      for f in payload["findings"]))
        self.assertEqual(proc.returncode, 0)
        self.assertGreater(payload["files_scanned"], 100)

    def test_list_rules(self):
        proc = subprocess.run(
            [sys.executable, LINT, "--list-rules"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0)
        self.assertEqual(
            proc.stdout.split(),
            ["wall-clock", "rng", "unordered-iter", "float-physics",
             "raw-double-api", "unchecked-io", "eintr", "metric-name"])


class AshLintExitCodeTest(unittest.TestCase):
    """Exit status contract: 0 clean, 1 findings, 2 usage/internal
    errors — so CI can tell "the tree is dirty" from "the tool is
    broken"."""

    def test_findings_exit_one(self):
        root = os.path.join(FIXTURES, "rng")
        proc = subprocess.run(
            [sys.executable, LINT, "--root", root, "positive.cpp"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)

    def test_clean_exit_zero(self):
        root = os.path.join(FIXTURES, "rng")
        proc = subprocess.run(
            [sys.executable, LINT, "--root", root, "clean.cpp"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_bad_root_exit_two(self):
        proc = subprocess.run(
            [sys.executable, LINT, "--root", "/nonexistent/xyzzy"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("not a directory", proc.stderr)

    def test_no_files_matched_exit_two(self):
        root = os.path.join(FIXTURES, "rng")
        proc = subprocess.run(
            [sys.executable, LINT, "--root", root, "no_such_subdir"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("no source files matched", proc.stderr)

    def test_unknown_rule_exit_two(self):
        proc = subprocess.run(
            [sys.executable, LINT, "--rule", "bogus"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
