#!/usr/bin/env python3
"""`ash_lab campaign` and `ash_lab chipN` check `--out DIR` before any work.

A missing output directory is a usage error: exit 2 with the usage text,
in well under the time one chip takes to simulate, and nothing written —
neither into the missing directory nor into the working directory.

Usage: ash_lab_out_dir_test.py PATH/TO/ash_lab
"""

import os
import subprocess
import sys
import tempfile
import unittest

ASH_LAB = None


class MissingOutDirTest(unittest.TestCase):
    def check_refused(self, *args):
        with tempfile.TemporaryDirectory() as tmp:
            missing = os.path.join(tmp, "no-such-dir")
            # The default --out is ".", so a late write would land in cwd.
            r = subprocess.run([ASH_LAB, *args, "--out", missing],
                               cwd=tmp, capture_output=True, timeout=30)
            self.assertEqual(r.returncode, 2, r.stderr.decode())
            self.assertIn(b"no-such-dir", r.stderr)
            self.assertIn(b"usage:", r.stderr)
            self.assertEqual(r.stdout, b"")
            self.assertEqual(os.listdir(tmp), [])

    def test_campaign(self):
        self.check_refused("campaign", "--jobs", "2")

    def test_chip5(self):
        self.check_refused("chip5")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    ASH_LAB = sys.argv.pop(1)
    unittest.main()
