#!/usr/bin/env python3
"""Pins `ash_lab reproduce`: all 27 sections of the paper reproduction.

The sections come in DESIGN.md Sec. 4 index order, each pinned byte for
byte by its CRC-32, so a mismatch names the section that moved.  Every
verdict of the last, Claims, must be "holds" or "deviation (recorded)",
and EXPERIMENTS.md must quote that section verbatim.  Ablation F prints
the CRC-32 of its threaded sample logs (28983703); `fleet_supervisor_test`
checks that the same population, run as forked worker processes,
reproduces it.  The stdout is saved as ./ash_lab_reproduce.stdout, where
the headline tests (ctest PaperCampaign.*, the fixture's users) read their
claim rows.

Usage: ash_lab_reproduce_test.py ASH_LAB EXPERIMENTS_MD  (or ctest -L perf)
"""

import re
import subprocess
import sys
import unittest
import zlib

ASH_LAB = None
EXPERIMENTS_MD = None

# (title prefix, CRC-32), in DESIGN.md Sec. 4 order.
SECTION_CRC32 = [
    ("Figure 1 —", 0xB9599464),
    ("Figure 4 —", 0x60CAA47B),
    ("Figure 5 —", 0xF55C8C22),
    ("Figure 6 —", 0x49D654BC),
    ("Figure 7 —", 0x2DD12764),
    ("Figure 8 —", 0x09FDCDA2),
    ("Figure 9 —", 0xFF61A53F),
    ("Figure 10 —", 0x0BAE25F5),
    ("Table 2 —", 0x9C8477EF),
    ("Table 3 —", 0x8336BA5D),
    ("Table 4 —", 0x56E9DC4B),
    ("Table 5 —", 0xD6C687BE),
    ("Ablation A —", 0x4D66A988),
    ("Ablation B —", 0x79269903),
    ("Ablation C —", 0x980D840E),
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
    ("Ablation — fault injection vs. fault tolerance", 0x6ED06A71),
    ("Claims —", 0xAA2627E0),
]

# A section starts at its banner: a rule, the title, then "paper: ...".
BANNER = re.compile(rb"^={64}\n[^\n]*\npaper: ", re.M)
# A Claims row: | id | source | paper | measured | band | verdict |
CLAIM_ROW = re.compile(r"^\| ([A-Za-z0-9]+\.\S+) .*\| (\S[^|]*?) +\|$", re.M)
# EXPERIMENTS.md's quote of the Claims section, a fenced block.
QUOTED_CLAIMS = re.compile(r"^```text\n(={64}\nClaims —.*?)^```$", re.M | re.S)


def sections(out):
    starts = [m.start() for m in BANNER.finditer(out)]
    return [out[a:b] for a, b in zip(starts, starts[1:] + [len(out)])]


class ReproduceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.result = subprocess.run([ASH_LAB, "reproduce"],
                                    capture_output=True, timeout=600)
        with open("ash_lab_reproduce.stdout", "wb") as f:
            f.write(cls.result.stdout)

    def claims(self):
        return sections(self.result.stdout)[-1].decode()

    def test_exits_zero(self):
        self.assertEqual(self.result.returncode, 0,
                         self.result.stderr.decode())

    def test_sections_follow_the_index_and_are_pinned(self):
        got = sections(self.result.stdout)
        self.assertEqual(b"".join(got), self.result.stdout)  # all pinned
        self.assertEqual(len(got), len(SECTION_CRC32))
        for text, (prefix, crc) in zip(got, SECTION_CRC32):
            title = text.split(b"\n")[1].decode()
            self.assertTrue(title.startswith(prefix), f"{prefix!r}: {title!r}")
            self.assertEqual(zlib.crc32(text), crc,
                             f"{title} differs:\n{text.decode()}")

    def test_every_claim_holds(self):
        rows = CLAIM_ROW.findall(self.claims())
        self.assertGreater(len(rows), 0)
        for claim, verdict in rows:
            self.assertIn(verdict, ("holds", "deviation (recorded)"), claim)

    def test_experiments_quotes_the_claims(self):
        with open(EXPERIMENTS_MD, encoding="utf-8") as f:
            quotes = QUOTED_CLAIMS.findall(f.read())
        self.assertEqual(len(quotes), 1, "one fenced Claims block expected")
        self.assertEqual(quotes[0], self.claims())

    def test_no_hidden_options(self):
        r = subprocess.run([ASH_LAB, "reproduce", "--stages", "15"],
                           capture_output=True, timeout=60)
        self.assertEqual(r.returncode, 2)
        self.assertIn(b"stages", r.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    ASH_LAB = sys.argv.pop(1)
    EXPERIMENTS_MD = sys.argv.pop(1)
    unittest.main()
