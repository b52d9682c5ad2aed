#!/usr/bin/env python3
"""`ash_fleetd drill` takes any directory name, and refuses a bad ring.

The drill builds its session directories without a shell, so a `'` in
`--dir` is just a character: a minimal drill there exits 0 with identical
transcripts.  A `--stages` no ring oscillator can have is a usage error
(exit 2) raised before any worker is forked.

Usage: ash_fleetd_drill_dir_test.py PATH/TO/ash_fleetd
"""

import os
import subprocess
import sys
import tempfile
import unittest

ASH_FLEETD = None


def drill(directory, *args):
    return subprocess.run(
        [ASH_FLEETD, "drill", "--dir", directory, "--requests", "2",
         "--shards", "1", "--quiet", *args],
        capture_output=True, timeout=120)


class DrillDirTest(unittest.TestCase):
    def test_quote_in_dir(self):
        with tempfile.TemporaryDirectory() as tmp:
            quoted = os.path.join(tmp, "q'dir")
            os.mkdir(quoted)
            r = drill(quoted, "--stages", "3")
            self.assertEqual(r.returncode, 0, r.stderr.decode())
            self.assertIn(b"transcripts identical", r.stdout)
            self.assertEqual(sorted(os.listdir(quoted)), ["chaos", "clean"])

    def test_impossible_stage_count_is_refused(self):
        with tempfile.TemporaryDirectory() as tmp:
            for stages in ("1", "4"):
                r = drill(tmp, "--stages", stages)
                self.assertEqual(r.returncode, 2, r.stderr.decode())
                self.assertIn(b"stage count must be odd", r.stderr)
                self.assertNotIn(b"transcripts", r.stdout)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    ASH_FLEETD = sys.argv.pop(1)
    unittest.main()
