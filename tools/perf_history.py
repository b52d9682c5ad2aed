#!/usr/bin/env python3
"""Summarise perfbench runs into one line of the perf trajectory.

``bench/baselines/history.jsonl`` holds one JSON object per line: one
workload, measured on one commit, as the medians of several runs of
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0``.
This tool reads the saved stdout of those runs and prints that line:

  python3 tools/perf_history.py --workload W --commit ID --side SIDE \\
      --seconds S --seeds 1,2,3 RUN.log [RUN.log ...] \\
      >> bench/baselines/history.jsonl

``--side`` says which end of a change the commit is (``parent`` or
``change``); a change measured before it was committed names its parent
commit and ``--side change``.  Each log must hold perfbench's
``host nproc=N ... steal_share=X`` line and end with its result JSON.
The line records the run count, whether every run read
``"correct": true``, the failed operations summed over runs, nproc, the
median steal share and the median of each end-to-end metric.

Exit codes: 0 ok, 2 bad input.
"""

import argparse
import json
import re
import statistics
import sys

HOST_RE = re.compile(r"^host nproc=(\d+) .*steal_share=([0-9.eE+-]+)\s*$")


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
    names = list(runs[0]["result"]["metrics"])
    median = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median[name] = statistics.median(values)
    return {
        "workload": args.workload,
        "commit": args.commit,
        "side": args.side,
        "seconds": args.seconds,
        "seeds": [int(s) for s in args.seeds.split(",")],
        "runs": len(runs),
        "correct": all(r["result"].get("correct") is True for r in runs),
        "failed": sum(int(r["result"].get("failed", 0)) for r in runs),
        "nproc": nprocs.pop(),
        "steal_share": statistics.median(r["steal_share"] for r in runs),
        "median": median,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--commit", required=True)
    parser.add_argument("--side", required=True, choices=["parent", "change"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, one per log")
    parser.add_argument("logs", nargs="+")
    args = parser.parse_args(argv[1:])
    try:
        if len(args.seeds.split(",")) != len(args.logs):
            raise ValueError("need one seed per log")
        line = summarize(args)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"perf_history: {e}", file=sys.stderr)
        return 2
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
