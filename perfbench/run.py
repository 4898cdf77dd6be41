#!/usr/bin/env python3
"""End-to-end benchmark of the gsmb meta-blocking library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

A run builds the benchmark package (perfbench/CMakeLists.txt, Release) into
.bench_build/, writes the workload's inputs for the seed into .bench_data/
with perfbench_gen (untimed), then starts the measured process,
perfbench_run, and prints its one-line JSON result as the last line of
standard output. Build and generator output goes to standard error.
--self-test builds and runs perfbench_checks_test, which feeds the output
checker corrupted outputs.

Workloads: batch-oneshot, stream-sweep, serve-trickle (see README.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DATA_DIR = os.path.join(ROOT, ".bench_data")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("batch-oneshot", "stream-sweep", "serve-trickle")
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    """Runs a build or generator step with its output on stderr."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"{what} failed (exit {result.returncode})")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"the library sources are missing: {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure, "configuring the benchmark")
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS, "--target",
               *targets], "building the benchmark")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def self_test():
    build(["perfbench_checks_test"])
    scratch = os.path.join(DATA_DIR, "checks_test")
    os.makedirs(scratch, exist_ok=True)
    return subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench_checks_test"), scratch]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or not args.seconds:
        parser.error("--workload, --seed and --seconds are required")

    expected = expected_metrics(args.trace)
    build(["perfbench_gen", "perfbench_run"])

    data = os.path.join(DATA_DIR, args.workload)
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    run_quiet([os.path.join(BUILD_DIR, "perfbench_gen"), "--workload",
               args.workload, "--seed", str(args.seed), "--out", data],
              "generating inputs")

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench_run"),
           "--workload", args.workload, "--data", data,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.join(
               OUT_DIR, f"{args.workload}-{args.seed}-trace.json")]
    # The measured process is timed from here: setup_s covers its start-up.
    start_ns = time.monotonic_ns()
    proc = subprocess.Popen(cmd + ["--start-ns", str(start_ns)],
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("the measured process printed no result")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json's "
             f"{sorted(expected.items())}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
