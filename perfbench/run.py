#!/usr/bin/env python3
"""Build the repository benchmark from source (Release) and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the repository's src/ libraries) into
.bench_build/ at the repository root, runs the benchmark binary from the
root, checks that its result names exactly the metrics BENCHMARK.json
declares for the mode (end_to_end for --trace 0, per_layer for --trace 1),
and passes its output through. The last stdout line is the result object.

Exit codes: 0 ok; 1 correctness gate failed; 2 bad arguments, missing
sources or a failed build; 3 the workload could not run or ran out of time;
4 the result does not match BENCHMARK.json.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "shmd_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources not found (expected src/CMakeLists.txt next to perfbench/)", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH", 2)
    os.makedirs(os.path.join(ROOT, BUILD_DIR), exist_ok=True)
    log_path = os.path.join(ROOT, BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "shmd_perfbench", "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail(f"build step timed out after {BUILD_TIMEOUT_S} s: {' '.join(step)}", 2)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.readlines()[-30:]
                sys.stderr.write("".join(tail))
                fail(f"build failed: {' '.join(step)} (log: {log_path})", 2)


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the benchmark's last output line is not a JSON result", 4)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)} are not correct/attempted/failed/metrics", 4)
    expected = expected_metrics(trace)
    if expected is None:
        return
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"unit mismatch {units}", 4)
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} has no finite value", 4)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]", 2)
    if args.seed < 0:
        fail("--seed must be >= 0", 2)

    build()
    command = [os.path.join(ROOT, BINARY), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        fail(f"workload '{args.workload}' did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1):
        sys.stdout.write("".join(line + "\n" for line in lines if line.startswith("#")))
        fail(f"workload '{args.workload}' exited with code {done.returncode}", 3)
    check_result(lines[-1], bool(args.trace))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
