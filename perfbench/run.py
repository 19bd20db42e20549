#!/usr/bin/env python3
"""Build and run the HERMES benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload finegrain --seed 1 --seconds 10 --trace 0

`--workload` is one of the workloads in BENCHMARK.json, or `all` to run
each in turn. `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer ones. The benchmark is built from source with cargo into
$CARGO_TARGET_DIR (default `.bench_build`). The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`; the exit code is 0 only for a correct run.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["pbbs", "finegrain", "serve-burst"]
# One run may take 180 s; leave room to report a run that hangs.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    """Build the benchmark binary; cargo's output goes to stderr."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target_dir / "release" / "hermes-perfbench"


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def run_one(binary, workload, args, target_dir):
    cmd = [
        str(binary), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-dir", str(target_dir / "perfbench-traces"),
    ]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed nothing (exit code {done.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not JSON: {lines[-1]!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: unexpected result keys {sorted(result)}")
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload}: metrics {got} differ from BENCHMARK.json {want}")
    if done.returncode != 0 or not result["correct"]:
        print(lines[-1])
        fail(f"{workload} failed its correctness checks (exit code {done.returncode})")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")

    target_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    binary = build(target_dir)
    if args.workload != "all":
        result = run_one(binary, args.workload, args, target_dir)
        print(json.dumps(result))
        return

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(binary, workload, args, target_dir)
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
