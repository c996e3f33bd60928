#!/usr/bin/env python3
"""Builds the serving benchmark from the repository sources and runs it.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build/; build output goes to stderr so the last stdout line is
the benchmark's JSON result. Traced runs write their spans as JSON lines to
<build dir>/traces/<workload>-seed<n>.jsonl.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "stream", "engine.hpp")):
        print("e2ebench: repository sources (src/) not found", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    for cmd in (["cmake", "-S", HERE, "-B", build],
                ["cmake", "--build", build, "-j", "4"]):
        step = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            print("e2ebench: build failed", file=sys.stderr)
            return 2

    cmd = [os.path.join(build, "serve_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(build, "traces")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
