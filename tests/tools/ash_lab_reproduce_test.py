#!/usr/bin/env python3
"""Pins `ash_lab reproduce`: all 26 sections of the paper reproduction.

The sections come in DESIGN.md Sec. 4 index order, each pinned byte for
byte by its CRC-32, so a mismatch names the section that moved.  Ablation
F prints the CRC-32 of its threaded sample logs (28983703);
`fleet_supervisor_test` checks that the same population, run as forked
worker processes, reproduces it.

Usage: ash_lab_reproduce_test.py PATH/TO/ash_lab   (also via `ctest -L perf`)
"""

import re
import subprocess
import sys
import unittest
import zlib

ASH_LAB = None

TOTAL_BYTES = 56858
TOTAL_CRC32 = 0xBF3BCB38
# (title prefix, CRC-32), in DESIGN.md Sec. 4 order.
SECTION_CRC32 = [
    ("Figure 1 —", 0x7DE2425E),
    ("Figure 4 —", 0x013F27FB),
    ("Figure 5 —", 0x7CBBE48E),
    ("Figure 6 —", 0xDC2CC991),
    ("Figure 7 —", 0xF6B19B7C),
    ("Figure 8 —", 0xF8A1FC9A),
    ("Figure 9 —", 0xFAE00F84),
    ("Figure 10 —", 0x163F88C5),
    ("Table 2 —", 0x9F92BC0E),
    ("Table 3 —", 0x8336BA5D),
    ("Table 4 —", 0x19D08EF9),
    ("Table 5 —", 0x53434A45),
    ("Ablation A —", 0x4D66A988),
    ("Ablation B —", 0x79269903),
    ("Ablation C —", 0xC673B15E),
    ("Ablation D —", 0x96E25AB9),
    ("Ablation E —", 0x32A85366),
    ("Ablation F —", 0x7CCDABDD),
    ("Ablation G —", 0xB31ED054),
    ("Ablation H —", 0x5A8FB1CE),
    ("Ablation I —", 0x45CFB7CF),
    ("Ablation J —", 0x9D3519EF),
    ("Ablation K —", 0x1CCD71E2),
    ("Ablation L —", 0x4E6BD135),
    ("Ablation — multi-core self-healing under core faults", 0x17FEA7D2),
    ("Ablation — fault injection vs. fault tolerance", 0x47667269),
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

    def test_titles_follow_the_index(self):
        titles = [text.split(b"\n")[1].decode()
                  for text in sections(self.result.stdout)]
        self.assertEqual(len(titles), len(SECTION_CRC32))
        for title, (prefix, _) in zip(titles, SECTION_CRC32):
            self.assertTrue(title.startswith(prefix),
                            f"expected {prefix!r}, got {title!r}")

    def test_sections_are_pinned(self):
        got = sections(self.result.stdout)
        self.assertEqual(len(got), len(SECTION_CRC32))
        for text, (title, crc) in zip(got, SECTION_CRC32):
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
