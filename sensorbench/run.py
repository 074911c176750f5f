#!/usr/bin/env python3
"""Build and run the end-to-end sensor benchmark.

    python3 sensorbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Configures and builds sensorbench/ (which
builds the vpm library from the checkout's sources) into
.bench_build/sensorbench, then runs the sensor_bench binary and relays its
output.  The last line of standard output is sensor_bench's JSON result.
Build output goes to standard error.  Exits nonzero, without a result line,
when the checkout has no library sources or the build fails; nonzero after
the result line when sensor_bench failed a check.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sensorbench")
BINARY = os.path.join(BUILD, "sensor_bench")
WORKLOADS = ("http_mss", "small_churn", "tls_screened", "http_paced")
# sensor_bench ends within --seconds plus its set-up; this only stops a wedged
# run from outliving the benchmark's time limit.
RUN_TIMEOUT_S = 170


def fail(message):
    print("sensorbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to the benchmark (expected src/CMakeLists.txt)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "sensor_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    sys.stdout.flush()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(cmd, cwd=ROOT) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("sensor_bench exceeded %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("sensor_bench exited with code %d" % code)


if __name__ == "__main__":
    main()
