#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test

Run from the repository root.  The program's libraries and the benchmark
binary are built from source (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build when it is unset; build output goes to stderr.  The benchmark's
stdout is passed through, and its last line, the JSON result, is checked
against BENCHMARK.json: an untraced run must report exactly the end-to-end
metrics; a traced run reports every per-layer metric, and a layer the
workload never calls reads 0.  `--test` builds and runs the benchmark's own
tests instead.  The exit status is the benchmark's (non-zero when an output
check failed), or 1 when the build or the result line is broken.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, target):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("configure failed")
    step = ["cmake", "--build", build_dir, "-j", jobs, "--target", target]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, target)


def complete_result(line, trace):
    """Check the result line against BENCHMARK.json; fill bypassed layers."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    result = json.loads(line)
    metrics = result["metrics"]
    if trace:
        for m in spec["per_layer"]:
            metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
        expected = spec["per_layer"]
    else:
        expected = spec["end_to_end"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        fail(f"result metrics {sorted(metrics)} are not {sorted(names)}")
    for m in expected:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} is reported in {metrics[m['name']]['unit']}, "
                 f"not {m['unit']}")
    result["metrics"] = {n: metrics[n] for n in names}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if not args.test and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if args.test:
        binary = build(build_dir, "perfbench_test")
        sys.exit(subprocess.run([binary]).returncode)

    binary = build(build_dir, "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    print("\n".join(lines[:-1]))
    print(complete_result(lines[-1], args.trace == 1), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
