#!/usr/bin/env python3
"""Pins `ash_lab reproduce`: the paper's campaign sections, byte for byte.

The stdout must equal what the ten per-section bench binaries it replaced
printed, concatenated in DESIGN.md Sec. 4 index order.  Per-section CRC-32s
name the section that moved when the total does not match.

Usage: ash_lab_reproduce_test.py PATH/TO/ash_lab   (also via `ctest -L perf`)
"""

import re
import subprocess
import sys
import unittest
import zlib

ASH_LAB = None

TOTAL_BYTES = 20591
TOTAL_CRC32 = 0x4B410E62
SECTION_CRC32 = [
    ("Figure 4", 0x013F27FB),
    ("Figure 5", 0x7CBBE48E),
    ("Figure 6", 0xDC2CC991),
    ("Figure 7", 0xF6B19B7C),
    ("Figure 8", 0xF8A1FC9A),
    ("Table 2", 0x9F92BC0E),
    ("Table 3", 0x8336BA5D),
    ("Table 4", 0x19D08EF9),
    ("Table 5", 0x53434A45),
    ("Ablation L", 0x4E6BD135),
]

# A section starts at its banner: a rule, the title, then "paper: ...".
BANNER = re.compile(rb"^={64}\n[^\n]*\npaper: ", re.M)


def sections(out):
    starts = [m.start() for m in BANNER.finditer(out)]
    return [out[a:b] for a, b in zip(starts, starts[1:] + [len(out)])]


class ReproduceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.result = subprocess.run([ASH_LAB, "reproduce"],
                                    capture_output=True, timeout=600)

    def test_exits_zero(self):
        self.assertEqual(self.result.returncode, 0,
                         self.result.stderr.decode())

    def test_sections_are_pinned(self):
        got = sections(self.result.stdout)
        self.assertEqual(len(got), len(SECTION_CRC32))
        for text, (title, crc) in zip(got, SECTION_CRC32):
            self.assertIn(title.encode(), text.split(b"\n")[1])
            self.assertEqual(zlib.crc32(text), crc,
                             f"{title} differs:\n{text.decode()}")

    def test_stdout_is_pinned(self):
        out = self.result.stdout
        self.assertEqual(len(out), TOTAL_BYTES)
        self.assertEqual(zlib.crc32(out), TOTAL_CRC32)

    def test_no_hidden_options(self):
        r = subprocess.run([ASH_LAB, "reproduce", "--stages", "15"],
                           capture_output=True, timeout=60)
        self.assertEqual(r.returncode, 2)
        self.assertIn(b"stages", r.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    ASH_LAB = sys.argv.pop(1)
    unittest.main()
