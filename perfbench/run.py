#!/usr/bin/env python3
"""Builds and runs the Harmony benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

`--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run. `--workload all` runs the four workloads in turn.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every correctness check passed. The default seed is 20120920; seed
7919 is held back for confirming claims. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-adaptive", "readheavy-sharded", "chaos-repair", "live-threads"]
DEFAULT_SEED = 20120920
# One workload run ends well inside this; the child is killed past it.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary from source and returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"cannot build the benchmark: {e}")
    if done.returncode != 0:
        fail("building the benchmark failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "harmony-perfbench")
    if not os.path.isfile(binary):
        fail(f"the build left no binary at {binary}")
    return binary


def output_of(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def expected_metrics(trace):
    """The metric names BENCHMARK.json lists for this mode, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, workload, args, rustc, commit):
    """Runs one workload and prints its report; returns the parsed result
    line, the line itself and the exit code."""
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rustc", rustc,
        "--commit", commit,
    ]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} ran past {RUN_TIMEOUT_S} s and was stopped")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(done.stdout)
        fail(f"{workload} printed no result line (exit code {done.returncode})")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        fail(f"{workload} reported other metrics than BENCHMARK.json lists")
    return result, lines[-1], done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be between 1 and 600")

    binary = build()
    rustc = output_of(["rustc", "--version"]) or "rustc unknown"
    commit = "unknown (not a git checkout)"
    if output_of(["git", "-C", ROOT, "rev-parse", "--show-toplevel"]) == ROOT:
        commit = output_of(["git", "-C", ROOT, "rev-parse", "HEAD"]) or commit

    if args.workload != "all":
        _, line, code = run_one(binary, args.workload, args, rustc, commit)
        print(line)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        result, _, code = run_one(binary, workload, args, rustc, commit)
        worst = max(worst, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
