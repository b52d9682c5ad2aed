#!/usr/bin/env python3
"""The perf gate and the perf trajectory, both from paired parent/change runs.

A host's speed moves more than the changes we measure, so every number
here is a ratio of a change to its parent measured on the same host in
alternating pairs, never an absolute time from another machine.

  python3 tools/perf_history.py gate PARENT_BENCH CHANGE_BENCH OUT_DIR

runs two ``bench_perf_kernels`` binaries, parent and change, in PAIRS
alternating pairs of ``--json`` (the parent runs first in odd pairs, the
change in even ones), keeps every run's JSON and stdout in OUT_DIR and
judges each timing row by its paired ratio change/parent.  A row
regresses when the median ratio exceeds 1 + THRESHOLD *and* a one-sided
sign test over the pairs (ties dropped) rejects "no slower" at
SIGN_ALPHA.  Gated rows: every ``kernels[].ns_per_call`` and
GATED_SCALARS.  ``clock_pair_ns`` is the host's clock floor, not our
code: it is printed, never gated.  Every change run must also meet
FLOORS.  Exit 0 ok, 1 a regression, a NaN row or a floor missed, 2 bad
input: a bench that fails or cannot run, malformed JSON, or a run
without the primary row ``bti.trap_ensemble.evolve``.

  python3 tools/perf_history.py --workload W --commit ID --seconds S \\
      --seeds 1,2,3 P1.log C1.log P2.log C2.log P3.log C3.log \\
      >> bench/baselines/history.jsonl

summarises saved stdout of ``python3 perfbench/run.py --workload W --seed
N --seconds S --trace 0`` run in alternating parent/change pairs, one
seed per pair, into one ledger line: the pair count, whether every run
read ``"correct": true``, each side's failed operations, nproc, the
median steal share, each side's median of every end-to-end metric and
the median paired ratio change/parent.  ID is the parent commit.  Each
log must hold perfbench's ``host nproc=N ... steal_share=X`` line and end
with its result JSON.

  python3 tools/perf_history.py trajectory [HISTORY]

prints every parent/change pair of the ledger (default
bench/baselines/history.jsonl) as ratios with their running product per
workload.  A ratio line gives its paired ratios; an older pair of
``"side"`` lines gives the ratio of its medians.

Exit codes of the summary and trajectory modes: 0 ok, 2 bad input.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HISTORY = os.path.join(os.path.dirname(HERE), "bench", "baselines",
                       "history.jsonl")
HOST_RE = re.compile(r"^host nproc=(\d+) .*steal_share=([0-9.eE+-]+)\s*$")

PRIMARY = "bti.trap_ensemble.evolve"
GATED_SCALARS = ("chip5_campaign_wall_ms", "chip5_fixed_drive_wall_ms",
                 "population_independent_wall_ms", "population_batch_wall_ms",
                 "margin_single_us", "margin_batch256_us", "timer_scope_ns")
RECORDED = ("clock_pair_ns",)
FLOORS = {"population_speedup_exact": 50.0}
# Chosen from 20 A/A and 20 injected-slowdown sessions of 15 pairs on a
# 4-core VM (EXPERIMENTS.md, "The paired perf gate").  A 5% sign test
# then needs 12 of 15 pairs slower; 9 or 13 pairs let single slow runs of
# a noisy host deny a 1.3x regression or flag unchanged code.
PAIRS = 15
THRESHOLD = 0.15
SIGN_ALPHA = 0.05


class BadInput(Exception):
    """Input the gate cannot judge: exit 2."""


def rows(path: str) -> dict:
    """name -> value of every timing row of one bench JSON, plus FLOORS."""
    try:
        with open(path) as f:
            doc = json.load(f)
        table = {k["name"]: float(k["ns_per_call"]) for k in doc["kernels"]}
        for name in GATED_SCALARS + RECORDED + tuple(FLOORS):
            if name in doc:
                table[name] = float(doc[name])
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise BadInput(f"{path}: {e!r}") from e
    if PRIMARY not in table:
        raise BadInput(f"{path}: no kernel named {PRIMARY!r}")
    return table


def sign_p(slower: int, n: int) -> float:
    """One-sided sign test: P(at least `slower` of n fair coin flips)."""
    return sum(math.comb(n, k) for k in range(slower, n + 1)) / 2.0 ** n


def judge(parent: list, change: list) -> tuple:
    """(report lines, failed) for paired runs: parent[i] with change[i]."""
    lines, failed = [], False
    shared = set.intersection(*(set(r) for r in parent + change))
    for name in sorted(set.union(*(set(r) for r in parent + change)) - shared):
        lines.append(f"{name}: not in every run -> SKIPPED")
    for name in sorted(shared - set(FLOORS)):
        ratios = [c[name] / p[name] if p[name] > 0 else math.nan
                  for p, c in zip(parent, change)]
        slower = sum(r > 1.0 for r in ratios)
        n = slower + sum(r < 1.0 for r in ratios)
        ratio = statistics.median(ratios)
        if name in RECORDED:
            verdict = "recorded"
        elif any(math.isnan(r) for r in ratios):
            verdict, ratio = "REGRESSION", math.nan
        else:
            bad = ratio > 1.0 + THRESHOLD and sign_p(slower, n) <= SIGN_ALPHA
            verdict = "REGRESSION" if bad else "OK"
        failed = failed or verdict == "REGRESSION"
        lines.append(
            f"{name}: parent {statistics.median(p[name] for p in parent):.6g}"
            f", change {statistics.median(c[name] for c in change):.6g}, "
            f"paired ratio {ratio:.3f} (limit {1.0 + THRESHOLD:.2f}), "
            f"slower in {slower} of {len(ratios)} pairs -> {verdict}")
    for name, floor in FLOORS.items():
        values = [c[name] for c in change if name in c]
        if values:
            bad = not all(v >= floor for v in values)
            failed = failed or bad
            lines.append(f"{name}: change runs {min(values):.2f}x.."
                         f"{max(values):.2f}x (floor {floor:.2f}x) -> "
                         f"{'REGRESSION' if bad else 'OK'}")
    return lines, failed


def gate(parent_bench: str, change_bench: str, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    bench = {"parent": parent_bench, "change": change_bench}
    runs = {"parent": [], "change": []}
    for pair in range(1, PAIRS + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            stem = os.path.join(out_dir, f"{side}-{pair}")
            with open(stem + ".log", "w") as log:
                try:
                    code = subprocess.run([bench[side], "--json",
                                           stem + ".json"],
                                          stdout=log).returncode
                except OSError as e:
                    raise BadInput(f"{side} bench {bench[side]}: {e}") from e
            if code != 0:
                raise BadInput(f"{side} bench exited {code} in pair {pair} "
                               f"(see {stem}.log)")
            runs[side].append(rows(stem + ".json"))
    lines, failed = judge(runs["parent"], runs["change"])
    print("\n".join(lines))
    return 1 if failed else 0


def read_run(path: str) -> dict:
    """The result JSON, nproc and steal share of one saved perfbench run."""
    with open(path) as f:
        lines = f.read().splitlines()
    host = [m for m in map(HOST_RE.match, lines) if m]
    if not host:
        raise ValueError(f"{path}: no 'host nproc=... steal_share=...' line")
    result = None
    for line in reversed(lines):
        if line.startswith("{"):
            result = json.loads(line)
            break
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"{path}: no perfbench result JSON line")
    return {
        "result": result,
        "nproc": int(host[-1].group(1)),
        "steal_share": float(host[-1].group(2)),
    }


def summarize(args: argparse.Namespace) -> dict:
    runs = [read_run(p) for p in args.logs]
    nprocs = {r["nproc"] for r in runs}
    if len(nprocs) != 1:
        raise ValueError(f"runs disagree on nproc: {sorted(nprocs)}")
    sides = {"parent": runs[0::2], "change": runs[1::2]}
    names = list(runs[0]["result"]["metrics"])

    def values(side, name):
        return [r["result"]["metrics"][name]["value"] for r in sides[side]]

    return {
        "workload": args.workload,
        "commit": args.commit,
        "seconds": args.seconds,
        "seeds": [int(s) for s in args.seeds.split(",")],
        "pairs": len(sides["change"]),
        "correct": all(r["result"].get("correct") is True for r in runs),
        "failed": {side: sum(int(r["result"].get("failed", 0)) for r in rs)
                   for side, rs in sides.items()},
        "nproc": nprocs.pop(),
        "steal_share": statistics.median(r["steal_share"] for r in runs),
        "median": {side: {n: statistics.median(values(side, n))
                          for n in names} for side in sides},
        "ratio": {n: statistics.median(c / p for p, c in zip(
            values("parent", n), values("change", n))) for n in names},
    }


def trajectory(path: str) -> None:
    """Print each ledger pair's ratios and their running product."""
    with open(path) as f:
        entries = [json.loads(line) for line in f if line.strip()]
    sides, pairs = {}, []
    for e in entries:
        key = (e["workload"], e["commit"])
        if "ratio" in e:
            pairs.append((key, e["ratio"]))
        elif e["side"] == "change" and key in sides:
            parent = sides.pop(key)["median"]
            pairs.append((key, {n: v / parent[n]
                                for n, v in e["median"].items()}))
        else:
            sides[key] = e
    product = {}
    for (workload, commit), ratio in pairs:
        cells = []
        for name in sorted(ratio):
            run = product.setdefault(workload, {})
            run[name] = run.get(name, 1.0) * ratio[name]
            cells.append(f"{name} {ratio[name]:.3f} x{run[name]:.3f}")
        print(f"{workload} {commit[:7]}  " + "  ".join(cells))


def main(argv: list[str]) -> int:
    try:
        if argv[1:2] == ["gate"]:
            if len(argv) != 5:
                raise BadInput("usage: perf_history.py gate PARENT_BENCH "
                               "CHANGE_BENCH OUT_DIR")
            return gate(*argv[2:])
        if argv[1:2] == ["trajectory"] and len(argv) <= 3:
            trajectory(argv[2] if len(argv) == 3 else HISTORY)
            return 0
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--workload", required=True)
        parser.add_argument("--commit", required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--seeds", required=True,
                            help="comma-separated seeds, one per pair")
        parser.add_argument("logs", nargs="+",
                            help="parent and change logs, alternating")
        args = parser.parse_args(argv[1:])
        if len(args.logs) % 2 or len(args.seeds.split(",")) * 2 != len(
                args.logs):
            raise ValueError("need parent/change log pairs, one seed each")
        print(json.dumps(summarize(args), sort_keys=True))
        return 0
    except (BadInput, OSError, ValueError, KeyError, TypeError) as e:
        print(f"perf_history: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
