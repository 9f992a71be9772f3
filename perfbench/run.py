#!/usr/bin/env python3
"""Builds the GMR benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout; the first run configures and compiles, later
runs only check that the build is current. The last line of standard output is
the result object {"correct", "attempted", "failed", "metrics"}; with
--trace 1 the spans are also written to <build>/perfbench/spans/. --selftest
builds and runs the benchmark's own tests instead. See perfbench/NOTES.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # every run must end within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return None
    return os.path.join(out, target)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and sorted(result) == ["attempted", "correct", "failed", "metrics"]
            and result["attempted"] >= 1
            and list(result["metrics"]) == [
                m["name"] for m in spec()["per_layer" if trace else "end_to_end"]])


def selftest():
    binary = build("perfbench_test")
    if binary is None:
        return fail("build failed")
    return subprocess.run([binary], timeout=600).returncode


def main():
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"no GMR sources under {ROOT}/src")

    binary = build("gmr_perfbench")
    if binary is None:
        return fail("build failed")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if run.returncode != 0:
        return fail(f"benchmark exited with {run.returncode}")
    if not valid_result(lines[-1], args.trace):
        return fail(f"malformed result line: {lines[-1]}")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
